from __future__ import annotations

import numpy as np
import pytest

from refscan.config import TrainConfig
from refscan.errors import ConfigError, DimensionError
from refscan.fusion import (
    HierarchyAttnParams,
    Rows,
    cross_attention,
    cross_attention_var,
    forward,
    fuse_predictions,
    head_var,
    init_model_params,
    loss_var,
    pool_hierarchies_var,
    pool_spatial,
    pool_temporal,
    _trajectory_input,
)
from refscan.harness.fixtures import GenConfig, synth_samples
from refscan.numerics import Var, softmax
from refscan.numerics.tape import one_row_slices
from refscan.retrieval import VisualTokenGrid
from refscan.semantics import SyntheticEncoder

CHECK_CONFIG = TrainConfig(
    d=16, d_s=8, d_a=8, n=4, n_prompts=2, frames=4, num_classes=5, batch=2, steps=0
)
CHECK_GEN = GenConfig(num_samples=2, frames=4, grid_rows=2, grid_cols=2, dim=16, num_classes=5, seed=3)


def attn_params(rng, d_q=4, d_s=4, d_a=4, n_p=0):
    return HierarchyAttnParams(
        w_q=rng.normal(size=(d_q, d_a)),
        w_k=rng.normal(size=(d_s, d_a)),
        w_v=rng.normal(size=(d_s, d_a)),
        prompts=rng.normal(size=(n_p, d_a)),
    )


def mhs_ca_branch(enhanced, hierarchy_queries, params_per_hierarchy):
    """Branch vector z of one sample: its hierarchies' attention outputs, pooled."""
    context = Var(np.asarray(enhanced)[None])
    parts = []
    for tag, queries in hierarchy_queries:
        pv = {name: Var(v) for name, v in vars(params_per_hierarchy[tag]).items()}
        out = cross_attention_var(Var(queries[None]), context, pv, "")
        parts.append((out, Rows(None, 0, np.ones(1, dtype=bool))))
    return pool_hierarchies_var(parts).value[0, 0]


def heads(z, reg, cls):
    """(bbox, probs) of one branch vector through the two fused heads."""
    zv = Var(np.asarray(z, dtype=np.float64).reshape(1, -1))
    names = ("w1", "b1", "w2", "b2")
    return tuple(
        head_var(zv, {n: Var(a) for n, a in zip(names, p)}, "")[0].value[0] for p in (reg, cls)
    )


def sample_loss(y, y_hat, b=(0.0,) * 4, b_hat=(0.0,) * 4, lambda_box=1.0):
    """One sample's loss through ``loss_var``: one branch, no aux term."""
    loss, _ = loss_var([Var(_row(b_hat))], [Var(_row(y_hat))], _row(b), _row(y), lambda_box, False)
    return float(loss.value)


def _row(a):
    return np.asarray(a, dtype=np.float64).reshape(1, 1, -1)


def bce_loss(y, y_hat):
    return sample_loss(y, y_hat)  # the box term is exactly zero


def mse_loss(b, b_hat):
    half = np.full(2, 0.5)
    return sample_loss([1.0, 0.0], half, b, b_hat) - sample_loss([1.0, 0.0], half, b, b_hat, lambda_box=0.0)


class TestPooling:
    def test_spatial_single_cell_identity(self):
        arr = np.arange(8.0).reshape(4, 1, 2)
        np.testing.assert_array_equal(pool_spatial(VisualTokenGrid(arr)), arr[:, 0, :])

    def test_spatial_constant_grid(self):
        grid = VisualTokenGrid(np.full((3, 5, 2), 7.5))
        np.testing.assert_array_equal(pool_spatial(grid), np.full((3, 2), 7.5))

    def test_spatial_hand_mean(self):
        grid = VisualTokenGrid(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        np.testing.assert_allclose(pool_spatial(grid), [[0.5, 0.5]])

    def test_temporal_single_frame_identity(self):
        arr = np.arange(8.0).reshape(1, 4, 2)
        np.testing.assert_array_equal(pool_temporal(VisualTokenGrid(arr)), arr[0])

    def test_temporal_time_constant(self):
        frame = np.arange(6.0).reshape(3, 2)
        grid = VisualTokenGrid(np.stack([frame, frame, frame]))
        np.testing.assert_array_equal(pool_temporal(grid), frame)

    def test_temporal_hand_mean(self):
        grid = VisualTokenGrid(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
        np.testing.assert_allclose(pool_temporal(grid), [[0.5, 0.5]])


class TestCrossAttention:
    def test_single_context_row_returns_value(self):
        rng = np.random.default_rng(0)
        p = attn_params(rng)
        context = rng.normal(size=(1, 4))
        out = cross_attention(rng.normal(size=(2, 4)), context, p)
        np.testing.assert_allclose(out, np.tile(context @ p.w_v, (2, 1)), atol=1e-12)

    def test_identical_context_rows_average_to_value(self):
        rng = np.random.default_rng(1)
        p = attn_params(rng)
        row = rng.normal(size=(1, 4))
        out = cross_attention(rng.normal(size=(1, 4)), np.tile(row, (2, 1)), p)
        np.testing.assert_allclose(out, row @ p.w_v, atol=1e-12)

    def test_matches_hand_softmax_arithmetic(self):
        # Q=1, no prompts, L=2, identity projections, d_a=2
        p = HierarchyAttnParams(w_q=np.eye(2), w_k=np.eye(2), w_v=np.eye(2), prompts=np.zeros((0, 2)))
        q = np.array([[1.0, 0.0]])
        context = np.array([[2.0, 0.0], [0.0, 2.0]])
        weights = softmax(np.array([2.0, 0.0]) / np.sqrt(2.0))
        expected = weights[0] * context[0] + weights[1] * context[1]
        np.testing.assert_allclose(cross_attention(q, context, p)[0], expected, atol=1e-12)

    def test_prompt_rows_append(self):
        rng = np.random.default_rng(2)
        p = attn_params(rng, n_p=3)
        out = cross_attention(rng.normal(size=(2, 4)), rng.normal(size=(5, 4)), p)
        assert out.shape == (5, 4)

    def test_no_prompts_no_extra_rows(self):
        rng = np.random.default_rng(3)
        p = attn_params(rng, n_p=0)
        out = cross_attention(rng.normal(size=(2, 4)), rng.normal(size=(5, 4)), p)
        assert out.shape == (2, 4)

    def test_rows_are_convex_combinations_of_values(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = attn_params(rng, n_p=2)
            context = rng.normal(size=(6, 4))
            out = cross_attention(rng.normal(size=(3, 4)), context, p)
            values = context @ p.w_v
            lo, hi = values.min(axis=0) - 1e-12, values.max(axis=0) + 1e-12
            assert np.all(out >= lo) and np.all(out <= hi)

    def test_equivariant_to_context_permutation(self):
        rng = np.random.default_rng(5)
        p = attn_params(rng, n_p=1)
        q = rng.normal(size=(2, 4))
        context = rng.normal(size=(7, 4))
        perm = rng.permutation(7)
        np.testing.assert_allclose(
            cross_attention(q, context, p), cross_attention(q, context[perm], p), atol=1e-12
        )

    def test_empty_context_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(DimensionError):
            cross_attention(rng.normal(size=(1, 4)), np.zeros((0, 4)), attn_params(rng))


class TestMhsCaBranch:
    def test_single_hierarchy_is_identity_on_pooled_output(self):
        rng = np.random.default_rng(7)
        p = {"rv": attn_params(rng, n_p=2)}
        enhanced = rng.normal(size=(5, 4))
        q = rng.normal(size=(1, 4))
        z = mhs_ca_branch(enhanced, [("rv", q)], p)
        np.testing.assert_allclose(z, cross_attention(q, enhanced, p["rv"]).mean(axis=0), atol=1e-12)

    def test_mean_over_hierarchies(self):
        rng = np.random.default_rng(8)
        p = {tag: attn_params(rng, n_p=1) for tag in ("rv", "kwv", "bv")}
        enhanced = rng.normal(size=(5, 4))
        queries = [(tag, rng.normal(size=(2, 4))) for tag in ("rv", "kwv", "bv")]
        z = mhs_ca_branch(enhanced, queries, p)
        parts = [cross_attention(q, enhanced, p[tag]).mean(axis=0) for tag, q in queries]
        np.testing.assert_allclose(z, np.mean(parts, axis=0), atol=1e-12)

    def test_no_hierarchy_rejected(self):
        with pytest.raises(ConfigError):
            mhs_ca_branch(np.zeros((2, 4)), [], {})


class TestHeads:
    def zero_head(self, d_a, out):
        return (np.zeros((d_a, d_a)), np.zeros(d_a), np.zeros((d_a, out)), np.zeros(out))

    def test_zero_weights_give_half(self):
        bbox, probs = heads(np.zeros(8), self.zero_head(8, 4), self.zero_head(8, 3))
        np.testing.assert_allclose(bbox, [0.5] * 4)
        np.testing.assert_allclose(probs, [0.5] * 3)

    def test_large_bias_saturates(self):
        w1, b1, w2, b2 = self.zero_head(8, 3)
        probs = heads(np.zeros(8), self.zero_head(8, 4), (w1, b1, w2, b2 + 10.0))[1]
        assert np.all(probs >= 0.9999)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        reg = tuple(rng.normal(size=s) for s in ((8, 8), 8, (8, 4), 4))
        cls = tuple(rng.normal(size=s) for s in ((8, 8), 8, (8, 3), 3))
        z = rng.normal(size=8)
        a = heads(z, reg, cls)
        b = heads(z.copy(), reg, cls)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestFusePredictions:
    def test_idempotent(self):
        b = np.array([0.1, 0.2, 0.3, 0.4])
        y = np.array([0.5, 0.6])
        bbox, probs = fuse_predictions((b, y), (b, y))
        np.testing.assert_array_equal(bbox, b)
        np.testing.assert_array_equal(probs, y)

    def test_midpoint(self):
        bbox, _ = fuse_predictions((np.zeros(4), np.zeros(2)), (np.ones(4), np.zeros(2)))
        np.testing.assert_allclose(bbox, [0.5] * 4)

    def test_hand_mean(self):
        _, probs = fuse_predictions((np.zeros(4), np.array([0.2, 0.8])), (np.zeros(4), np.array([0.4, 0.4])))
        np.testing.assert_allclose(probs, [0.3, 0.6])

    def test_commutative(self):
        rng = np.random.default_rng(10)
        t = (rng.random(4), rng.random(3))
        s = (rng.random(4), rng.random(3))
        ab = fuse_predictions(t, s)
        ba = fuse_predictions(s, t)
        np.testing.assert_array_equal(ab[0], ba[0])
        np.testing.assert_array_equal(ab[1], ba[1])


class TestLosses:
    def test_bce_perfect_prediction_near_zero(self):
        eps = 1e-7
        y_hat = np.array([eps, 1 - eps])
        assert bce_loss(np.round(y_hat), y_hat) < 1e-6

    def test_bce_half_is_ln2(self):
        assert bce_loss(np.array([1.0]), np.array([0.5])) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_bce_two_class_ln2(self):
        assert bce_loss(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_bce_nonnegative_and_finite_at_extremes(self):
        loss = bce_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.isfinite(loss) and loss > 0

    def test_bce_minimized_at_target(self):
        y = np.array([1.0, 0.0, 1.0])
        base = bce_loss(y, np.clip(y, 1e-7, 1 - 1e-7))
        rng = np.random.default_rng(11)
        for _ in range(50):
            assert bce_loss(y, rng.random(3)) >= base

    def test_bce_length_mismatch(self):
        with pytest.raises(DimensionError):
            bce_loss(np.array([1.0]), np.array([0.5, 0.5]))

    def test_mse_zero_iff_equal(self):
        b = np.array([0.1, 0.2, 0.3, 0.4])
        assert mse_loss(b, b) == 0.0
        assert mse_loss(b, b + 1e-3) > 0.0

    def test_mse_unit_offsets(self):
        assert mse_loss(np.zeros(4), np.ones(4)) == pytest.approx(4.0)

    def test_mse_single_coordinate(self):
        b = np.array([0.0, 0.0, 0.0, 0.0])
        b_hat = np.array([0.5, 0.0, 0.0, 0.0])
        assert mse_loss(b, b_hat) == pytest.approx(0.25)


class TestForward:
    def _setup(self, **overrides):
        cfg = TrainConfig(**{**CHECK_CONFIG.to_dict(), **overrides}).validate()
        samples = synth_samples(CHECK_GEN)
        params = init_model_params(cfg, seed=0)
        encoder = SyntheticEncoder(CHECK_GEN.dim, CHECK_GEN.seed)
        return cfg, samples, params, encoder

    def test_deterministic_bitwise(self):
        cfg, samples, params, encoder = self._setup()
        a = forward(samples[0], params, cfg, encoder)
        b = forward(samples[0], params, cfg, encoder)
        np.testing.assert_array_equal(a.output.bbox, b.output.bbox)
        np.testing.assert_array_equal(a.output.class_probs, b.output.class_probs)
        assert float(a.loss.value) == float(b.loss.value)

    def test_finite_loss_at_desk_config(self):
        cfg, samples, params, encoder = self._setup()
        res = forward(samples[0], params, cfg, encoder)
        assert np.isfinite(float(res.loss.value))
        assert np.all((res.output.bbox > 0) & (res.output.bbox < 1))
        assert np.all((res.output.class_probs > 0) & (res.output.class_probs < 1))

    def test_holistic_only_toggle_matches_manual_pipeline(self):
        """Disabling keyword+attribute must leave exactly the holistic wiring."""
        from replica import holistic_only_forward

        cfg, samples, params, encoder = self._setup(use_keyword=False, use_attribute=False)
        sample = samples[0]
        res = forward(sample, params, cfg, encoder)
        bbox, probs = holistic_only_forward(sample, params, cfg)
        np.testing.assert_array_equal(res.output.bbox, bbox)
        np.testing.assert_array_equal(res.output.class_probs, probs)

    def test_all_hierarchies_off_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(use_holistic=False, use_keyword=False, use_attribute=False).validate()

    def test_holistic_off_runs_on_other_hierarchies(self):
        cfg, samples, params, encoder = self._setup(use_holistic=False)
        res = forward(samples[0], params, cfg, encoder)
        assert np.isfinite(float(res.loss.value))

    def test_single_branch_fusion(self):
        cfg, samples, params, encoder = self._setup(use_spatial=False)
        res = forward(samples[0], params, cfg, encoder)
        np.testing.assert_array_equal(res.output.bbox, res.output.bbox_temporal)
        assert res.output.bbox_spatial is None

    def test_zero_prompts_shape(self):
        cfg, samples, params, encoder = self._setup(n_prompts=0)
        assert params["attn.rv.temporal.prompts"].shape == (0, cfg.d_a)
        res = forward(samples[0], params, cfg, encoder)
        assert np.isfinite(float(res.loss.value))

    def test_mhs_ca_bypass(self):
        cfg, samples, params, encoder = self._setup(use_mhs_ca=False)
        res = forward(samples[0], params, cfg, encoder)
        assert np.isfinite(float(res.loss.value))

    def test_mhs_ca_bypass_requires_matching_dims(self):
        with pytest.raises(ConfigError):
            TrainConfig(use_mhs_ca=False, d_s=8, d_a=16).validate()

    def test_aux_branch_loss_increases_total(self):
        cfg, samples, params, encoder = self._setup()
        base = float(forward(samples[0], params, cfg, encoder).loss.value)
        cfg_aux, *_ = self._setup(aux_branch_loss=True)
        aux = float(forward(samples[0], params, cfg_aux, encoder).loss.value)
        assert aux > base


# -- a batch's rows and trajectory inputs -------------------------------------------


@pytest.mark.parametrize("n_p", [0, 2])
@pytest.mark.parametrize("counts", [[0, 1, 3], [2, 2]])
def test_rows_derive_slices_and_mask_from_counts(counts, n_p):
    counts = np.array(counts)
    rows = Rows(counts, n_p, counts > 0)
    for got, want in ((rows.single, one_row_slices(counts)), (rows.single_full, one_row_slices(counts + n_p))):
        assert (got is None) == (want is None)
        if want is not None:
            np.testing.assert_array_equal(got, want)
    if len(set(counts.tolist())) == 1:
        assert rows.mask is None and rows.w is None and rows.rows is None
    else:  # the real rows, then the prompt rows
        expected = [[r < c for r in range(counts.max())] + [True] * n_p for c in counts]
        np.testing.assert_array_equal(rows.mask, expected)
        np.testing.assert_array_equal(rows.w[..., 0], expected)
        np.testing.assert_array_equal(rows.rows[:, 0, 0], np.maximum(counts + n_p, 1))
    if (counts > 0).all():
        assert rows.keep is None
    else:
        np.testing.assert_array_equal(rows.keep[:, 0, 0], counts > 0)


def test_rows_without_counts_have_every_row_real():
    rows = Rows(None, 2, np.array([True, False]))
    assert rows.counts is None and rows.single is None and rows.single_full is None
    assert rows.mask is None and rows.w is None and rows.rows is None
    np.testing.assert_array_equal(rows.keep[:, 0, 0], [1.0, 0.0])


def test_trajectory_input_is_the_per_sample_gather():
    rng = np.random.default_rng(5)
    frames, cells, dim = 3, 4, 2
    grids = [VisualTokenGrid(rng.normal(size=(frames, cells, dim))) for _ in range(3)]
    picks = [rng.integers(0, cells, size=(k, frames)) for k in (2, 0, 3)]  # the second sample has no picks
    x = _trajectory_input(grids, picks)
    assert x.shape == (frames, 3 * 3, dim)
    x = x.reshape(frames, 3, 3, dim)
    for b, (grid, idx) in enumerate(zip(grids, picks)):
        for k in range(3):
            for t in range(frames):
                want = grid.tokens[t, idx[k, t]] if k < len(idx) else np.zeros(dim)
                np.testing.assert_array_equal(x[t, b, k], want)
