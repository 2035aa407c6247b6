"""Each fused tape node against its composed reference in ``composed.py``.

Forward values must be bitwise those of the composed ops, and each node's
gradients must agree within 1e-12 relative, on batched inputs with padded
rows. Through the whole forward the gradients are bitwise equal too, so
training checkpoints keep their bytes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from refscan import fusion
from refscan.fusion import PROB_EPS, Rows, forward, init_model_params
from refscan.harness import suites
from refscan.harness.fixtures import GenConfig, default_train_config, synth_samples
from refscan.numerics.tape import Var
from refscan.semantics import SyntheticEncoder

import composed
from cases import OUTPUT_FIELDS, case, head_and_pool_values, keyword_retrievals

GRAD_RTOL = 1e-12
FUSED = (
    "cross_attention_var",
    "pool_hierarchies_var",
    "head_var",
    "loss_var",
    "keyword_tokens_var",
    "scene_tokens_var",
)


def named(prefix: str, names: tuple[str, ...], leaves: list[Var]) -> dict[str, Var]:
    """The leaf dict a layer reads its parameters from: ``prefix + name``."""
    return {prefix + name: leaf for name, leaf in zip(names, leaves)}


ATTN, HEAD, SCAN = ("w_q", "w_k", "w_v", "prompts"), ("w1", "b1", "w2", "b2"), ("in_proj", "A", "B", "C")


def run(layer, arrays, build, upstream_seed=0):
    """Value of ``build(layer, vars)`` and the gradient of a random weighted
    sum of it with respect to each input array."""
    leaves = [Var(np.array(a, dtype=np.float64)) for a in arrays]
    out = build(layer, leaves)
    out = out[0] if isinstance(out, tuple) else out
    weight = np.random.default_rng(upstream_seed).normal(size=out.value.shape)
    composed.sum_all(composed.mul(out, Var(weight))).backward()
    return out.value, [leaf.grad for leaf in leaves]


def assert_matches_composed(name, arrays, build):
    fused_value, fused_grads = run(getattr(fusion, name), arrays, build)
    ref_value, ref_grads = run(getattr(composed, name), arrays, build)
    np.testing.assert_array_equal(fused_value, ref_value)
    assert len(fused_grads) == len(ref_grads)
    for i, (f, r) in enumerate(zip(fused_grads, ref_grads)):
        assert (f is None) == (r is None), f"input {i}: gradient present in only one"
        if r is None:
            continue
        assert f.shape == r.shape, f"input {i}: {f.shape} vs {r.shape}"
        top = max(np.abs(r).max(initial=0.0), np.abs(f).max(initial=0.0))
        assert np.abs(f - r).max(initial=0.0) <= GRAD_RTOL * top, f"input {i}: gradients differ"


def padded(rng, rows, width, dim):
    """(B, width, dim) random rows, zero past each entry's real count."""
    x = rng.normal(size=(len(rows), width, dim))
    x[np.arange(width)[None, :] >= np.asarray(rows)[:, None]] = 0.0
    return x


@pytest.mark.parametrize("n_p", [0, 2])
@pytest.mark.parametrize("rows", [[3, 1, 2, 1], [1, 1, 1, 1], None])
def test_cross_attention_vjp(n_p, rows):
    rng = np.random.default_rng(n_p * 10 + (0 if rows is None else sum(rows)))
    queries = padded(rng, rows or [3] * 4, 3, 5)
    arrays = [queries, rng.normal(size=(4, 6, 4))]
    arrays += [rng.normal(size=s) for s in ((5, 3), (4, 3), (4, 3), (n_p, 3))]
    query_rows = None if rows is None else Rows(np.array(rows), n_p, np.ones(4, dtype=bool))

    def build(layer, v):
        return layer(v[0], v[1], named("attn.kwv.spatial.", ATTN, v[2:]), "attn.kwv.spatial.", query_rows)

    assert_matches_composed("cross_attention_var", arrays, build)


def test_cross_attention_vjp_single_sample():
    rng = np.random.default_rng(7)
    arrays = [rng.normal(size=s) for s in ((2, 4), (5, 4), (4, 3), (4, 3), (4, 3), (1, 3))]

    def build(layer, v):
        return layer(v[0], v[1], named("", ATTN, v[2:]), "")

    assert_matches_composed("cross_attention_var", arrays, build)


@pytest.mark.parametrize("used", [[True, True, True, True], [True, False, True, False]])
def test_pool_hierarchies_vjp(used):
    rng = np.random.default_rng(11)
    used = np.array(used)
    prompted = Rows([2, 1, 3, 0], 1, np.ones(4, dtype=bool))
    empty = Rows([2, 0, 1, 3], 0, used)  # sample 1 has no row
    np.testing.assert_array_equal(prompted.mask, [[1, 1, 0, 1], [1, 0, 0, 1], [1, 1, 1, 1], [0, 0, 0, 1]])
    np.testing.assert_array_equal(empty.mask, [[1, 1, 0], [0, 0, 0], [1, 0, 0], [1, 1, 1]])
    arrays = [rng.normal(size=(4, 4, 3)), rng.normal(size=(4, 3, 3)), rng.normal(size=(4, 5, 3))]

    def build(layer, v):
        every_row = Rows(None, 0, np.array([False, True, True, True]))
        return layer([(v[0], prompted), (v[1], empty), (v[2], every_row)])

    assert_matches_composed("pool_hierarchies_var", arrays, build)


@pytest.mark.parametrize("batched", [True, False])
def test_head_vjp(batched):
    rng = np.random.default_rng(13)
    z = rng.normal(size=(5, 1, 6) if batched else (1, 6))
    arrays = [z, rng.normal(size=(6, 6)), rng.normal(size=6), rng.normal(size=(6, 3)), rng.normal(size=3)]

    def build(layer, v):
        out, mask = layer(v[0], named("head.spatial.cls.", HEAD, v[1:]), "head.spatial.cls.")
        assert 0 < mask.sum() < mask.size  # both sides of the ReLU kink are exercised
        return out

    assert_matches_composed("head_var", arrays, build)


def edge_probs(rng, shape):
    """Probabilities with entries on both clamp band edges and outside the band."""
    p = rng.uniform(0.05, 0.95, size=shape)
    flat = p.reshape(-1)
    flat[:4] = [PROB_EPS, 1.0 - PROB_EPS, 0.0, 1.0]
    return p


@pytest.mark.parametrize("aux", [False, True])
@pytest.mark.parametrize("n_branches", [1, 2])
def test_loss_vjp(aux, n_branches):
    rng = np.random.default_rng(17 + n_branches)
    shape = (3, 1, 5)
    labels = (rng.random(shape) < 0.5).astype(np.float64)
    gt = rng.uniform(size=(3, 1, 4))
    boxes = [rng.uniform(size=(3, 1, 4)) for _ in range(n_branches)]
    probs = [edge_probs(rng, shape) for _ in range(n_branches)]
    if n_branches == 2:  # the branch mean lands on the band edges too
        probs[1].reshape(-1)[:2] = probs[0].reshape(-1)[:2]

    def build(layer, v):
        loss, bands = layer(v[:n_branches], v[n_branches:], gt, labels, 4.0, aux)
        assert len(bands) == 1 + aux * n_branches
        assert not bands[0].all() and bands[0].any()
        return loss

    assert_matches_composed("loss_var", boxes + probs, build)


def test_loss_bands_match_composed():
    rng = np.random.default_rng(19)
    probs = [Var(edge_probs(rng, (2, 1, 6))) for _ in range(2)]
    boxes = [Var(rng.uniform(size=(2, 1, 4))) for _ in range(2)]
    args = (boxes, probs, rng.uniform(size=(2, 1, 4)), np.ones((2, 1, 6)), 1.0, True)
    fused, ref = fusion.loss_var(*args)[1], composed.loss_var(*args)[1]
    assert len(fused) == len(ref) == 3
    for f, r in zip(fused, ref):
        np.testing.assert_array_equal(f, r)


@pytest.mark.parametrize("counts", [[2, 1, 3], [1, 0, 2]])
def test_trajectory_aggregation_vjp(counts):
    rng = np.random.default_rng(23)
    counts = np.array(counts)
    width = int(counts.max())
    x = rng.normal(size=(5, len(counts), width, 4))
    x[:, np.arange(width)[None, :] >= counts[:, None]] = 0.0  # padded trajectories
    scan = [rng.normal(size=(4, 3)), np.diag(rng.uniform(0.5, 0.95, 2)), rng.normal(size=(2, 3))]
    arrays = [x.reshape(5, -1, 4), *scan, rng.normal(size=(3, 2))]

    def keyword(layer, v):
        return layer(v[0], named("ssm.keyword.", SCAN, v[1:]), "ssm.keyword.", len(counts))

    def scene(layer, v):
        return layer(v[0], named("ssm.scene.", SCAN, v[1:]), "ssm.scene.", counts)

    assert_matches_composed("keyword_tokens_var", arrays, keyword)
    assert_matches_composed("scene_tokens_var", arrays, scene)


# -- the whole forward -------------------------------------------------------------

def forward_and_grads(samples, params, config, encoder):
    params.zero_grads()
    res = forward(samples, params, config, encoder)
    res.loss.backward()
    return res, {name: params.grad(name).copy() for name in params.names()}


@pytest.mark.parametrize(
    "name",
    [
        "aux loss", "gradcheck", "no attribute", "no cross-attention", "no holistic", "no prompts", "one prompt",
        "temporal only",
    ],
)
def test_forward_is_bitwise_the_composed_model(name, monkeypatch):
    config, samples, encoder, params = case(name, "mixed", params_seed=1)
    for batch in (samples, samples[2]):
        fused, fused_grads = forward_and_grads(batch, params, config, encoder)
        with monkeypatch.context() as m:
            for layer in FUSED:
                m.setattr(fusion, layer, getattr(composed, layer))
            ref, ref_grads = forward_and_grads(batch, params, config, encoder)
        assert float(fused.loss.value) == float(ref.loss.value)
        assert fused.selection_signature == ref.selection_signature
        for i, (out, ref_out) in enumerate(zip(fused.outputs, ref.outputs)):
            for field in OUTPUT_FIELDS:
                a, b = getattr(out, field), getattr(ref_out, field)
                assert (a is None) == (b is None)
                if a is not None:
                    np.testing.assert_array_equal(a, b, err_msg=field)
            ours, theirs = head_and_pool_values(fused, i), head_and_pool_values(ref, i)
            assert ours.keys() == theirs.keys()
            for key in ours:
                np.testing.assert_array_equal(ours[key], theirs[key], err_msg=key)
        # the fused vjps also sum in the composed order, so training stays bitwise
        for param, g in ref_grads.items():
            np.testing.assert_array_equal(fused_grads[param], g, err_msg=param)


def test_train_step_builds_at_most_90_tape_nodes():
    """One learnability-config step (batch 8): 56 parameter leaves, a few
    input leaves and about 20 fused nodes."""
    gen = GenConfig(num_samples=8, frames=8, grid_rows=4, grid_cols=4, dim=32, num_classes=10, seed=7)
    config = default_train_config(gen, batch=8, seed=7, d_a=32, lambda_box=4.0, aux_branch_loss=True)
    samples = synth_samples(gen)
    encoder = SyntheticEncoder(gen.dim, gen.seed)
    res = forward(samples, init_model_params(config), config, encoder)
    seen, stack = {id(res.loss)}, [res.loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    assert len(seen) <= 90


def test_gradcheck_loss_prepares_each_sample_once(monkeypatch):
    """Across three ``model_loss_fn`` evaluations, each sample runs keyword
    retrieval once, and each evaluation is a fresh forward's, bitwise."""
    config, samples, encoder, params = case("gradcheck")
    grids = keyword_retrievals(monkeypatch)
    fn = suites.model_loss_fn(samples, params, config, encoder)
    losses = [fn(params.leaves) for _ in range(3)]
    assert sorted(map(id, grids)) == sorted(id(s.grid) for s in samples)
    raw = forward([dataclasses.replace(s) for s in samples], params, config, encoder)
    for loss, signature in losses:
        assert float(loss.value) == float(raw.loss.value)
        assert signature == raw.selection_signature
