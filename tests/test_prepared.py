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
from refscan.harness.checkpoint import save_checkpoint
from refscan.harness.training import Adam, lr_at_step, train
from refscan.numerics.linalg import uniform_init
from refscan.retrieval import build_trajectory_set
from refscan.semantics import SyntheticEncoder, build_scene_attribute_tokens, confident_detections

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
        params.zero_grads()
        fresh = [dataclasses.replace(samples[i]) for i in batch_idx]
        loss = forward(fresh, params, config, encoder).loss
        loss.backward()
        lr = lr_at_step(step, config, steps_per_epoch)
        t = step + 1
        for name, arr in params.items():
            g = params.grad(name)
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


def test_the_scene_projection_is_a_constant_of_the_seed(tmp_path):
    """No ``scene_proj.*`` is in the store or a checkpoint; the projection
    is the first draw of the store's init rng, built once and read-only.
    The scan-input test below holds each batch's scene picks to it."""
    config, samples, encoder = train_setup()
    ckpt = train(config, samples, encoder).checkpoint
    save_checkpoint(tmp_path / "model.ckpt", ckpt)
    header = json.loads((tmp_path / "model.ckpt").read_bytes().split(b"\n", 1)[0])
    assert header["params"] and not [e for e in header["params"] if e["name"].startswith("scene_proj")]
    assert not [n for n in ckpt.params.names() if n.startswith("scene_proj")]

    for seed in (0, 1):
        proj = fusion.scene_projection(TRAIN_GEN.dim, seed)
        first = uniform_init(np.random.default_rng(seed), TRAIN_GEN.dim + 4, (TRAIN_GEN.dim + 4, TRAIN_GEN.dim))
        assert np.array_equal(proj, first) and not proj.flags.writeable
        assert proj is fusion.scene_projection(TRAIN_GEN.dim, seed)


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
        samples = [s for s in samples if len(s.reference.keywords) or s.detections]
    assert any(len(s.reference.keywords) == 0 for s in samples)
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
    """A sample keeps nothing that depends on the store: its scene picks
    follow the projection of the seed of the store it meets."""
    config = config_for("desk")
    encoder = SyntheticEncoder(GEN.dim, GEN.seed)
    samples = mixed_batch(encoder)
    before = forward(samples, init_model_params(config, seed=0), config, encoder).inputs.bs_input
    params = init_model_params(config, seed=3)
    fresh = forward([dataclasses.replace(s) for s in samples], params, config, encoder)
    res = forward(samples, params, config, encoder)
    assert not np.array_equal(fresh.inputs.bs_input, before)
    assert np.array_equal(res.inputs.bs_input, fresh.inputs.bs_input)
    assert res.selection_signature == fresh.selection_signature
    assert float(res.loss.value) == float(fresh.loss.value)
    for a, b in zip(res.outputs, fresh.outputs):
        assert np.array_equal(a.class_probs, b.class_probs) and np.array_equal(a.bbox, b.bbox)


def test_scan_inputs_are_the_retrieved_trajectory_tokens(monkeypatch):
    """The gathered, padded scan input holds each trajectory's retrieved
    tokens; the scene-attribute ones under the store's seed's projection."""
    config = config_for("desk")
    encoder = SyntheticEncoder(GEN.dim, GEN.seed)
    samples = mixed_batch(encoder)
    inputs = []
    real_scan = fusion.scan_var
    monkeypatch.setattr(fusion, "scan_var", lambda x, *rest: inputs.append(x.value) or real_scan(x, *rest))
    frames, _, dim = samples[0].grid.tokens.shape
    for seed in (0, 1):
        params = init_model_params(config, seed=seed)
        del inputs[:]
        forward(samples, params, config, encoder)
        for x, hierarchy in zip(inputs, ("keyword", "scene-attribute")):
            x = x.reshape(frames, len(samples), -1, dim)
            for b, s in enumerate(samples):
                if hierarchy == "keyword":
                    queries = s.reference.keyword_embeddings
                else:
                    kept = confident_detections(s.detections, config.conf_threshold, config.max_detections)
                    queries = build_scene_attribute_tokens(kept, encoder, fusion.scene_projection(config.d, seed))
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
    assert result.abort_param == result.checkpoint.params.names()[0] and result.abort_stage is None
    assert result.losses == forwards[:bad_step]
    assert np.array_equal(result.checkpoint.params.flat_values, after_step[-1])
