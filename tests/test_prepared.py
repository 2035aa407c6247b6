"""The inputs a sample keeps, and the training step built on them.

A sample works out its keyword retrieval and pooled inputs on first read
and keeps them; training reuses them across steps and runs Adam over one
flat parameter vector. Both must be bitwise a forward on fresh samples
every step and the per-tensor optimizer.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from refscan import fusion
from refscan.errors import DimensionError, PipelineError
from refscan.fusion import forward, init_model_params
from refscan.harness import training
from refscan.harness.evaluation import evaluate
from refscan.harness.fixtures import GenConfig, default_train_config, synth_samples
from refscan.harness.training import Adam, lr_at_step, train
from refscan.numerics.tape import Var
from refscan.retrieval import build_trajectory_set
from refscan.semantics import SyntheticEncoder, build_scene_attribute_tokens

from test_batch import GEN, OUTPUT_FIELDS, config_for, mixed_batch

TRAIN_GEN = GenConfig(num_samples=6, frames=4, grid_rows=2, grid_cols=2, dim=16, num_classes=5, seed=9)
TRAIN_CFG = dict(d_s=8, d_a=8, n=4, n_prompts=2, batch=4, steps=6, learning_rate=5e-3, aux_branch_loss=True)


def train_setup():
    config = default_train_config(TRAIN_GEN, **TRAIN_CFG)
    return config, synth_samples(TRAIN_GEN), SyntheticEncoder(TRAIN_GEN.dim, TRAIN_GEN.seed)


def reference_train(config, samples, encoder):
    """Forward on fresh sample copies every step, so nothing the samples
    kept is reused, and a per-tensor Adam; returns (losses, params)."""
    params = init_model_params(config)
    rng = np.random.default_rng(config.seed)
    m = {name: np.zeros_like(arr) for name, arr in params.items()}
    v = {name: np.zeros_like(arr) for name, arr in params.items()}
    steps_per_epoch = max(1, math.ceil(len(samples) / config.batch))
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    losses, order = [], []
    for step in range(config.steps):
        if not order:
            order = list(rng.permutation(len(samples)))
        batch_idx = [order.pop() for _ in range(min(config.batch, len(order)))]
        if len(batch_idx) < config.batch and len(samples) >= config.batch:
            order = list(rng.permutation(len(samples)))
            while len(batch_idx) < config.batch:
                batch_idx.append(order.pop())
        pv = {name: Var(arr.copy()) for name, arr in params.items()}
        fresh = [dataclasses.replace(samples[i]) for i in batch_idx]
        loss = forward(fresh, params, config, encoder, param_vars=pv).loss
        loss.backward()
        lr = lr_at_step(step, config, steps_per_epoch)
        t = step + 1
        for name, arr in params.items():
            g = pv[name].grad if pv[name].grad is not None else np.zeros_like(arr)
            m[name] *= beta1
            m[name] += (1.0 - beta1) * g
            v[name] *= beta2
            v[name] += (1.0 - beta2) * g * g
            arr -= lr * (m[name] / (1.0 - beta1**t)) / (np.sqrt(v[name] / (1.0 - beta2**t)) + eps)
        losses.append(float(loss.value))
    return losses, params


def test_train_is_bitwise_an_uncached_per_tensor_loop():
    config, samples, encoder = train_setup()
    result = train(config, samples, encoder)
    losses, params = reference_train(config, samples, encoder)
    assert result.losses == losses
    assert result.checkpoint.params.names() == params.names()
    for name, arr in params.items():
        assert np.array_equal(result.checkpoint.params[name], arr), name


def test_training_never_moves_scene_proj():
    """``scene_proj`` enters no tape, so training leaves it where it started."""
    config, samples, encoder = train_setup()
    init = init_model_params(config)
    trained = train(config, samples, encoder).checkpoint.params
    moved = [name for name, arr in init.items() if not np.array_equal(trained[name], arr)]
    assert "scene_proj.w" not in moved and "scene_proj.b" not in moved
    assert len(moved) > len(init.names()) // 2


def keyword_retrievals(monkeypatch):
    """The grid of each keyword ``fusion.build_trajectory_set`` call, recorded from now on."""
    grids = []
    real = fusion.build_trajectory_set

    def counting(queries, grid, hierarchy):
        if hierarchy == "keyword":
            grids.append(grid)
        return real(queries, grid, hierarchy)

    monkeypatch.setattr(fusion, "build_trajectory_set", counting)
    return grids


def test_train_prepares_each_sample_once(monkeypatch):
    """Across one ``train``, each sample runs keyword retrieval once."""
    config, samples, encoder = train_setup()
    assert config.steps * config.batch > len(samples)  # samples recur
    grids = keyword_retrievals(monkeypatch)
    train(config, samples, encoder)
    assert sorted(map(id, grids)) == sorted(id(s.grid) for s in samples)


def test_evaluating_twice_retrieves_each_sample_once(monkeypatch):
    """The target-less copy an evaluation forwards shares what its sample keeps."""
    config, samples, encoder = train_setup()
    samples, params = samples[:4], init_model_params(config)
    fresh = evaluate(params, config, [dataclasses.replace(s) for s in samples], encoder)
    grids = keyword_retrievals(monkeypatch)
    reports = [evaluate(params, config, samples, encoder) for _ in range(2)]
    assert sorted(map(id, grids)) == sorted(id(s.grid) for s in samples)
    assert all(s.kw_indices is s.without_targets().kw_indices for s in samples)
    assert json.dumps(reports[0]) == json.dumps(reports[1]) == json.dumps(fresh)


def test_kept_keyword_picks_are_a_fresh_retrieval():
    encoder = SyntheticEncoder(GEN.dim, GEN.seed)
    for s in mixed_batch(encoder):
        fresh = build_trajectory_set(s.reference.keyword_embeddings, s.grid, "keyword")
        assert s.kw_indices.dtype == np.intp and s.kw_indices.shape == fresh.indices.shape
        assert np.array_equal(s.kw_indices, fresh.indices)
        assert s.kw_signature == fresh.indices_signature()
        assert s.kw_indices is s.kw_indices  # kept, not retrieved again


def test_a_keyword_retrieval_failure_is_tagged_retrieval():
    config = config_for("desk")
    encoder = SyntheticEncoder(GEN.dim, GEN.seed)
    samples = mixed_batch(encoder)
    wider = fusion.prepare_reference("red hat left", SyntheticEncoder(GEN.dim + 1, GEN.seed))
    samples[2] = dataclasses.replace(samples[2], reference=wider)
    with pytest.raises(PipelineError) as info:
        forward(samples, init_model_params(config, seed=0), config, encoder)
    assert info.value.stage == "retrieval" and isinstance(info.value.cause, DimensionError)


def test_a_disabled_branch_is_never_pooled(monkeypatch):
    config = dataclasses.replace(config_for("desk"), use_spatial=False)
    encoder = SyntheticEncoder(GEN.dim, GEN.seed)
    samples = mixed_batch(encoder)
    pooled = []
    for name in ("pool_spatial", "pool_temporal"):
        real = getattr(fusion, name)
        monkeypatch.setattr(fusion, name, lambda grid, name=name, real=real: pooled.append(name) or real(grid))
    forward(samples, init_model_params(config, seed=0), config, encoder)
    forward(samples, init_model_params(config, seed=1), config, encoder)
    assert pooled == ["pool_spatial"] * len(samples)
    for s in samples:
        assert np.array_equal(s.pooled("temporal"), s.grid.tokens.mean(axis=1))


@pytest.mark.parametrize("name", ["desk", "one prompt, aux loss", "no holistic"])
def test_prepared_forward_is_bitwise_the_raw_forward(name):
    """A forward on samples whose kept inputs are filled is bitwise one on
    fresh copies, alone or mixed with fresh samples in one batch."""
    config = config_for(name)
    encoder = SyntheticEncoder(GEN.dim, GEN.seed)
    samples = mixed_batch(encoder)
    if not config.use_holistic:
        samples = [s for s in samples if s.reference.num_keywords or s.detections]
    assert any(s.reference.num_keywords == 0 for s in samples)
    assert any(not s.detections for s in samples)
    params = init_model_params(config, seed=0)
    filled = forward(samples, params, config, encoder)
    assert all(s.kw_indices.dtype == np.intp for s in samples)
    fresh = forward([dataclasses.replace(s) for s in samples], params, config, encoder)
    mixed = [s if i % 2 else dataclasses.replace(s) for i, s in enumerate(samples)]
    for res in (filled, forward(samples, params, config, encoder), forward(mixed, params, config, encoder)):
        assert float(res.loss.value) == float(fresh.loss.value)
        assert res.selection_signature == fresh.selection_signature
        for a, b in zip(res.outputs, fresh.outputs):
            for field in OUTPUT_FIELDS:
                x, y = getattr(a, field), getattr(b, field)
                assert (x is None and y is None) or np.array_equal(x, y), field


def test_prepared_sample_holds_when_scene_proj_moves():
    """A sample keeps no parameter-dependent value: scene tokens follow ``scene_proj``."""
    config = config_for("desk")
    encoder = SyntheticEncoder(GEN.dim, GEN.seed)
    samples = mixed_batch(encoder)
    params = init_model_params(config, seed=0)
    before = forward(samples, params, config, encoder).selection_signature
    params["scene_proj.w"] = np.random.default_rng(3).normal(size=params["scene_proj.w"].shape)
    fresh = forward([dataclasses.replace(s) for s in samples], params, config, encoder)
    res = forward(samples, params, config, encoder)
    assert [sig[1] for sig in fresh.selection_signature] != [sig[1] for sig in before]
    assert res.selection_signature == fresh.selection_signature
    assert float(res.loss.value) == float(fresh.loss.value)
    for a, b in zip(res.outputs, fresh.outputs):
        assert np.array_equal(a.class_probs, b.class_probs) and np.array_equal(a.bbox, b.bbox)


def test_scan_inputs_are_the_retrieved_trajectory_tokens(monkeypatch):
    """The gathered, padded scan input holds each trajectory's retrieved tokens."""
    config = config_for("desk")
    encoder = SyntheticEncoder(GEN.dim, GEN.seed)
    samples = mixed_batch(encoder)
    params = init_model_params(config, seed=0)
    inputs = []
    real_scan = fusion.scan_var
    monkeypatch.setattr(fusion, "scan_var", lambda x, *rest: inputs.append(x.value) or real_scan(x, *rest))
    forward(samples, params, config, encoder)
    frames, _, dim = samples[0].grid.tokens.shape
    for x, hierarchy in zip(inputs, ("keyword", "scene-attribute")):
        x = x.reshape(frames, len(samples), -1, dim)
        for b, s in enumerate(samples):
            if hierarchy == "keyword":
                queries = s.reference.keyword_embeddings
            else:
                queries = build_scene_attribute_tokens(
                    s.detections, encoder, params["scene_proj.w"], params["scene_proj.b"],
                    conf_threshold=config.conf_threshold, max_count=config.max_detections,
                )
            picks = build_trajectory_set(queries, s.grid, hierarchy).indices
            for k, cells in enumerate(picks):
                tokens = s.grid.tokens[np.arange(frames), cells]
                assert np.array_equal(x[:, b, k], tokens), (hierarchy, b, k)
            assert not x[:, b, len(picks):].any()


def test_nonfinite_gradient_aborts_before_the_optimizer(monkeypatch):
    """A finite loss whose backward yields NaN aborts like a non-finite loss."""
    config, samples, encoder = train_setup()
    bad_step = 2
    forwards, after_step = [], []
    real_forward, real_step = training.forward, Adam.step

    def forward_with_nan_grad(*args, **kwargs):
        res = real_forward(*args, **kwargs)
        forwards.append(float(res.loss.value))
        if len(forwards) == bad_step + 1:
            vjp = res.loss._vjp
            res.loss._vjp = lambda g: tuple(np.full_like(p, np.nan) for p in vjp(g))
        return res

    def recording_step(self, lr):
        real_step(self, lr)
        after_step.append(self.params.flat_values.copy())

    monkeypatch.setattr(training, "forward", forward_with_nan_grad)
    monkeypatch.setattr(Adam, "step", recording_step)
    result = train(config, samples, encoder)
    assert math.isfinite(forwards[bad_step])
    assert result.aborted and result.steps_done == bad_step and len(after_step) == bad_step
    first_reached = next(n for n in result.checkpoint.params.names() if not n.startswith("scene_proj."))
    assert result.abort_param == first_reached and result.abort_stage is None
    assert result.losses == forwards[:bad_step]
    assert np.array_equal(result.checkpoint.params.flat_values, after_step[-1])
