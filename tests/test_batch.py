"""The batched path: a batch must be the samples run alone, side by side."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refscan.errors import DimensionError
from refscan.fusion import forward
from refscan.harness.fixtures import synth_samples
from refscan.harness.suites import GRADCHECK_GEN, model_loss_fn, random_scan_case, run_model_gradcheck
from refscan.numerics.gradcheck import grad_check
from refscan.numerics.tape import Var
from refscan.retrieval import VisualTokenGrid, build_trajectory_set, nearest_token
from refscan.ssm import scan_var, ssm_scan, ssm_scan_oracle

from cases import GEN, OUTPUT_FIELDS, case, head_and_pool_values


@pytest.mark.parametrize(
    "name", ["gradcheck", "no cross-attention", "no holistic", "no prompts", "one prompt, aux loss"]
)
def test_mixed_batch_is_bitwise_the_samples_alone(name):
    config, samples, encoder, params = case(name, "mixed", params_seed=0)
    assert {len(s.reference.keywords) for s in samples} >= {0, 1, 4} or not config.use_holistic
    batch = forward(samples, params, config, encoder)
    for i, (s, out, sig) in enumerate(zip(samples, batch.outputs, batch.selection_signature)):
        alone = forward(s, params, config, encoder)
        for field in OUTPUT_FIELDS:
            a, b = getattr(out, field), getattr(alone.output, field)
            assert (a is None and b is None) or np.array_equal(a, b), (s.sample_id, field)
        ours, theirs = head_and_pool_values(batch, i), head_and_pool_values(alone, 0)
        assert ours.keys() == theirs.keys()
        for key in ours:
            np.testing.assert_array_equal(ours[key], theirs[key], err_msg=f"{s.sample_id} {key}")
        assert (sig,) == alone.selection_signature


def test_batch_of_one_loss_is_the_sample_loss():
    config, samples, encoder, params = case("gradcheck", "mixed", params_seed=0)
    s = samples[2]
    assert float(forward([s], params, config, encoder).loss.value) == float(
        forward(s, params, config, encoder).loss.value
    )


def test_batch_gradient_is_mean_of_sample_gradients():
    config, samples, encoder, params = case("one prompt, aux loss", "mixed", params_seed=0)

    def grads(batch):
        params.zero_grads()
        forward(batch, params, config, encoder).loss.backward()
        return {name: params.grad(name).copy() for name in params.names()}

    batch = grads(samples)
    singles = [grads([s]) for s in samples]
    for name, g in batch.items():
        mean = sum(single[name] for single in singles) / len(samples)
        scale = max(float(np.max(np.abs(mean), initial=0.0)), 1e-300)
        assert float(np.max(np.abs(g - mean), initial=0.0)) <= 1e-12 * scale, name


def test_mixed_grid_shapes_rejected():
    config, _, encoder, params = case("gradcheck", "mixed", params_seed=0)
    a = synth_samples(GEN)[0]
    b = synth_samples(dataclasses.replace(GEN, grid_rows=3))[0]
    with pytest.raises(DimensionError):
        forward([a, b], params, config, encoder)


# -- scans ----------------------------------------------------------------------


def test_batched_scan_rows_match_oracle_and_lone_scans():
    rng = np.random.default_rng(20)
    for _ in range(40):
        x, params = random_scan_case(rng, max_len=10, max_d=5, max_n=4)
        rows = int(rng.integers(1, 7))
        xs = rng.standard_normal((x.shape[0], rows, x.shape[1]))
        pv = {name: Var(v) for name, v in vars(params).items()}
        out = scan_var(Var(xs), pv, "").value
        assert out.shape == (x.shape[0], rows, params.out_dim)
        for r in range(rows):
            oracle = ssm_scan_oracle(xs[:, r], params).outputs
            assert float(np.max(np.abs(out[:, r] - oracle))) <= 1e-10
            np.testing.assert_array_equal(out[:, r], ssm_scan(xs[:, r], params).outputs)


def test_batched_scan_prefix_consistent():
    rng = np.random.default_rng(21)
    for _ in range(40):
        x, params = random_scan_case(rng, max_len=12, max_d=4, max_n=4)
        xs = rng.standard_normal((x.shape[0], int(rng.integers(1, 6)), x.shape[1]))
        pv = {name: Var(v) for name, v in vars(params).items()}
        m = int(rng.integers(1, x.shape[0] + 1))
        np.testing.assert_array_equal(scan_var(Var(xs), pv, "").value[:m], scan_var(Var(xs[:m]), pv, "").value)


# -- retrieval -------------------------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_vectorized_retrieval_matches_nearest_token(seed):
    rng = np.random.default_rng(seed)
    frames, cells, dim = (int(rng.integers(1, 6)), int(rng.integers(1, 9)), int(rng.integers(1, 5)))
    tokens = rng.integers(-2, 3, size=(frames, cells, dim)).astype(np.float64)  # coarse: many ties
    if cells > 1:
        tokens[:, -1] = tokens[:, 0]  # exact duplicate cells: the lower index must win
    queries = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), dim)) / 2.0
    grid = VisualTokenGrid(tokens)
    ts = build_trajectory_set(queries, grid, "keyword")
    assert ts.indices.shape == (len(queries), frames)
    for k in range(len(queries)):
        picked = grid.tokens[np.arange(frames), ts.indices[k]]
        for l in range(frames):
            idx, tok = nearest_token(queries[k], tokens[l])
            assert ts.indices[k, l] == idx
            np.testing.assert_array_equal(picked[l], tok)


# -- kinks in gradient checks ------------------------------------------------------


def test_gradcheck_skips_a_head_relu_kink():
    """Put one hidden unit's pre-activation exactly at zero: the central
    difference straddles the kink and is off, so the entry must be skipped."""
    config, samples, encoder, params = case("gradcheck", seed=GRADCHECK_GEN.seed, params_seed=0)
    name, unit, eps = "head.temporal.cls.b1", 3, 1e-5
    z = forward(samples, params, config, encoder).outputs[0].z_temporal
    params[name][unit] = -(z @ params["head.temporal.cls.w1"])[unit]

    b1 = params[name]

    def loss():
        return forward(samples, params, config, encoder).loss

    params.zero_grads()
    loss().backward()
    analytic = params.grad(name)[unit]
    b1[unit] += eps
    up = float(loss().value)
    b1[unit] -= 2 * eps
    down = float(loss().value)
    b1[unit] += eps
    numeric = (up - down) / (2 * eps)
    assert abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric)) > 1e-4

    report = grad_check(model_loss_fn(samples, params, config, encoder), params, eps)
    row = next(row for row in report.rows if row.name == name)
    assert row.skipped == 1
    assert row.checked == b1.size - 1
    assert report.passed(1e-4), report.format_table()


@pytest.mark.parametrize("seed", [11, 22])
def test_gradcheck_passes_at_seeds_with_a_kink_crossing(seed):
    report = run_model_gradcheck(seed=seed)
    assert report.passed(1e-4), report.format_table()
    assert sum(row.skipped for row in report.rows) == 1
