"""The batched path: a batch must be the samples run alone, side by side."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refscan.config import TrainConfig
from refscan.errors import DimensionError
from refscan.fusion import ModelOutput, forward, init_model_params, prepare_reference
from refscan.harness.fixtures import GenConfig, synth_samples
from refscan.harness.suites import (
    GRADCHECK_CONFIG,
    GRADCHECK_GEN,
    model_loss_fn,
    random_scan_case,
    run_model_gradcheck,
)
from refscan.numerics import grad_check
from refscan.numerics.tape import Var
from refscan.retrieval import VisualTokenGrid, build_trajectory_set, nearest_token
from refscan.semantics import Detection, SyntheticEncoder
from refscan.ssm import scan_var, ssm_scan, ssm_scan_oracle

GEN = GenConfig(num_samples=6, frames=4, grid_rows=2, grid_cols=2, dim=16, num_classes=5, seed=3)
OUTPUT_FIELDS = [f.name for f in dataclasses.fields(ModelOutput)]

# (reference, number of confident detections kept from the fixture, or None for all)
VARIANTS = [
    ("the person", 0),  # one keyword, no scene tokens
    ("of the in a", 1),  # only stop words: no keywords
    (None, None),  # fixture reference (four keywords) and detections
    ("red hat left", 3),
    ("girl shirt", None),
    ("the", 0),  # nothing but the holistic query
]


def mixed_batch(encoder):
    samples = synth_samples(GEN)
    out = []
    for s, (text, n_det) in zip(samples, VARIANTS):
        reference = s.reference if text is None else prepare_reference(text, encoder)
        detections = s.detections if n_det is None else [
            Detection((0.1, 0.1, 0.5, 0.6), cat, 0.9) for cat in ("cup", "dog", "car")[:n_det]
        ]
        out.append(dataclasses.replace(s, reference=reference, detections=detections))
    return out


CONFIGS = {
    "desk": {},
    "no prompts": {"n_prompts": 0},
    "one prompt, aux loss": {"n_prompts": 1, "aux_branch_loss": True},
    "no cross-attention": {"use_mhs_ca": False},
    "no holistic": {"use_holistic": False},
}


def config_for(name):
    return TrainConfig(**{**GRADCHECK_CONFIG.to_dict(), **CONFIGS[name]}).validate()


def head_and_pool_values(res, b: int) -> dict:
    """Each head's and each branch pooling's output for batch entry ``b``."""
    units = zip(res.inputs.units, res.runs)
    return {u.key: run[0].value[b] for u, run in units if u.key.startswith(("head.", "pool."))}


def usable(samples, config):
    """Drop samples with no enabled hierarchy (forward rejects them)."""
    if config.use_holistic:
        return samples
    return [s for s in samples if s.reference.num_keywords or s.detections]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_mixed_batch_is_bitwise_the_samples_alone(name):
    config = config_for(name)
    encoder = SyntheticEncoder(GEN.dim, GEN.seed)
    samples = usable(mixed_batch(encoder), config)
    assert {s.reference.num_keywords for s in samples} >= {0, 1, 4} or not config.use_holistic
    params = init_model_params(config, seed=0)
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
    config = config_for("desk")
    encoder = SyntheticEncoder(GEN.dim, GEN.seed)
    s = mixed_batch(encoder)[2]
    params = init_model_params(config, seed=0)
    assert float(forward([s], params, config, encoder).loss.value) == float(
        forward(s, params, config, encoder).loss.value
    )


def test_batch_gradient_is_mean_of_sample_gradients():
    config = config_for("one prompt, aux loss")
    encoder = SyntheticEncoder(GEN.dim, GEN.seed)
    samples = mixed_batch(encoder)
    params = init_model_params(config, seed=0)

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
    config = config_for("desk")
    encoder = SyntheticEncoder(GEN.dim, GEN.seed)
    a = synth_samples(GEN)[0]
    b = synth_samples(dataclasses.replace(GEN, grid_rows=3))[0]
    with pytest.raises(DimensionError):
        forward([a, b], init_model_params(config, seed=0), config, encoder)


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
    config = GRADCHECK_CONFIG
    samples = synth_samples(GRADCHECK_GEN)
    encoder = SyntheticEncoder(GRADCHECK_GEN.dim, GRADCHECK_GEN.seed)
    params = init_model_params(config, seed=0)
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
