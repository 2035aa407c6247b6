from __future__ import annotations

import numpy as np
import pytest

from refscan.config import TrainConfig
from refscan.errors import DimensionError
from refscan.fusion import init_model_params, keyword_tokens_var, scene_tokens_var
from refscan.harness.suites import random_scan_case
from refscan.numerics.linalg import uniform_init
from refscan.numerics.tape import Var
from refscan.ssm import SsmLayerParams, _scan_forward, scan_var, ssm_scan, ssm_scan_oracle

import composed


def identity_params(d):
    return SsmLayerParams(in_proj=np.eye(d), A=np.zeros((d, d)), B=np.eye(d), C=np.eye(d))


def integrator_params(d):
    return SsmLayerParams(in_proj=np.eye(d), A=np.eye(d), B=np.eye(d), C=np.eye(d))


def init_ssm_params(rng, d, d_s, n):
    """A stable layer: A diagonal in (0.5, 0.95), projections within 1/sqrt(fan_in)."""
    a = np.diag(rng.uniform(0.5, 0.95, size=n))
    return SsmLayerParams(
        in_proj=uniform_init(rng, d, (d, d_s)),
        A=a,
        B=uniform_init(rng, d_s, (n, d_s)),
        C=uniform_init(rng, n, (d_s, n)),
    )


def layer_vars(params):
    """Leaves of one scan layer, named as the layer reads them under the prefix ''."""
    return {name: Var(v) for name, v in vars(params).items()}


def time_major(trajectories):
    """(T, K, d) scan input of one sample's (T, d) trajectories."""
    return Var(np.stack([np.asarray(t, dtype=np.float64) for t in trajectories], axis=1))


def keyword_tokens(trajectories, params):
    """(K, d_s) keyword tokens of one sample, through the forward's node."""
    return keyword_tokens_var(time_major(trajectories), layer_vars(params), "", 1).value[0]


def scene_tokens(trajectories, params):
    """(T, d_s) scene-attribute sequence of one sample, through the forward's node."""
    counts = np.array([len(trajectories)])
    return scene_tokens_var(time_major(trajectories), layer_vars(params), "", counts).value[0]


def holistic_tokens(sequence, params):
    """(T, d_s) enhanced branch sequence of one sample, as the forward scans it."""
    return scan_var(Var(np.asarray(sequence)[:, None, :]), layer_vars(params), "").value[:, 0]


class TestScan:
    def test_memoryless(self):
        x = np.arange(12.0).reshape(4, 3)
        out = ssm_scan(x, identity_params(3))
        np.testing.assert_allclose(out.outputs, x)

    def test_pure_integrator_prefix_sums(self):
        x = np.arange(12.0).reshape(4, 3)
        out = ssm_scan(x, integrator_params(3))
        np.testing.assert_allclose(out.outputs, np.cumsum(x, axis=0))
        np.testing.assert_allclose(out.final_state, x.sum(axis=0))

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, params = random_scan_case(rng, max_len=8, max_d=4, max_n=3)
            fast = ssm_scan(x, params)
            slow = ssm_scan_oracle(x, params)
            np.testing.assert_allclose(fast.outputs, slow.outputs, atol=1e-12)
            np.testing.assert_allclose(fast.final_state, slow.final_state, atol=1e-12)

    def test_oracle_one_step_closed_form(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 4))
        params = init_ssm_params(rng, 4, 3, 2)
        out = ssm_scan_oracle(x, params)
        expected = (x @ params.in_proj) @ params.B.T @ params.C.T
        np.testing.assert_allclose(out.outputs, expected, atol=1e-12)

    def test_zero_inputs_zero_outputs(self):
        rng = np.random.default_rng(2)
        params = init_ssm_params(rng, 3, 2, 4)
        out = ssm_scan(np.zeros((5, 3)), params)
        np.testing.assert_array_equal(out.outputs, np.zeros((5, 2)))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            ssm_scan(np.zeros((2, 5)), identity_params(3))

    def test_linearity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, params = random_scan_case(rng, max_len=10, max_d=4, max_n=4)
            y = rng.standard_normal(x.shape)
            a, b = rng.normal(), rng.normal()
            combined = ssm_scan(a * x + b * y, params).outputs
            separate = a * ssm_scan(x, params).outputs + b * ssm_scan(y, params).outputs
            np.testing.assert_allclose(combined, separate, atol=1e-10)

    def test_prefix_consistency_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, params = random_scan_case(rng, max_len=12, max_d=4, max_n=4)
            full = ssm_scan(x, params).outputs
            m = int(rng.integers(1, x.shape[0] + 1))
            truncated = ssm_scan(x[:m], params).outputs
            np.testing.assert_array_equal(full[:m], truncated)


class TestScanVar:
    def test_forward_matches_contract_op(self):
        rng = np.random.default_rng(5)
        x, params = random_scan_case(rng, max_len=6, max_d=4, max_n=3)
        out = scan_var(Var(x), layer_vars(params), "").value
        np.testing.assert_array_equal(out, ssm_scan(x, params).outputs)

    def test_backward_matches_finite_differences(self):
        from refscan.numerics.gradcheck import grad_check
        from refscan.numerics.params import ParamStore

        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 3))
        base = init_ssm_params(rng, 3, 2, 4)
        layer = {f"ssm.layer.{name}": getattr(base, name) for name in ("in_proj", "A", "B", "C")}
        params = ParamStore({**layer, "x": x})
        weights = rng.normal(size=(5, 2))

        def loss_fn(pv):
            out = scan_var(pv["x"], pv, "ssm.layer.")
            return composed.sum_all(composed.mul(out, Var(weights)))

        report = grad_check(loss_fn, params, eps=1e-6)
        assert report.max_rel_err <= 1e-7, report.format_table()


class TestAggregates:
    """The forward's per-hierarchy aggregation: keyword finals, scene means, holistic scans."""

    def test_keyword_memoryless_last_token(self):
        params = identity_params(3)
        tokens = np.arange(9.0).reshape(3, 3)
        out = keyword_tokens([tokens], params)
        np.testing.assert_allclose(out, tokens[-1:].copy())

    def test_keyword_duplicate_trajectories(self):
        rng = np.random.default_rng(7)
        params = init_ssm_params(rng, 3, 2, 4)
        tokens = rng.normal(size=(4, 3))
        out = keyword_tokens([tokens, tokens], params)
        np.testing.assert_array_equal(out[0], out[1])

    def test_keyword_matches_oracle_finals(self):
        rng = np.random.default_rng(8)
        params = init_ssm_params(rng, 3, 2, 4)
        trajs = [rng.normal(size=(5, 3)) for _ in range(3)]
        out = keyword_tokens(trajs, params)
        for i, t in enumerate(trajs):
            np.testing.assert_allclose(out[i], ssm_scan_oracle(t, params).outputs[-1], atol=1e-12)

    def test_keyword_empty(self):
        # a sample with no keyword is zero-padded in its batch: its rows read zero
        rng = np.random.default_rng(16)
        params = init_ssm_params(rng, 3, 2, 4)
        x = np.zeros((5, 2, 3))
        x[:, 0] = rng.normal(size=(5, 3))
        out = keyword_tokens_var(Var(x), layer_vars(params), "", 2).value
        assert out.shape == (2, 1, 2)
        np.testing.assert_array_equal(out[1], np.zeros((1, 2)))
        np.testing.assert_array_equal(out[0, 0], ssm_scan(x[:, 0], params).outputs[-1])

    def test_keyword_permutation_no_state_leakage(self):
        rng = np.random.default_rng(9)
        params = init_ssm_params(rng, 3, 2, 4)
        trajs = [rng.normal(size=(5, 3)) for _ in range(4)]
        out = keyword_tokens(trajs, params)
        perm = [2, 0, 3, 1]
        out_perm = keyword_tokens([trajs[i] for i in perm], params)
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_scene_single_trajectory(self):
        rng = np.random.default_rng(10)
        params = init_ssm_params(rng, 3, 2, 4)
        tokens = rng.normal(size=(6, 3))
        out = scene_tokens([tokens], params)
        np.testing.assert_allclose(out, ssm_scan(tokens, params).outputs)

    def test_scene_identical_inputs_mean_idempotent(self):
        rng = np.random.default_rng(11)
        params = init_ssm_params(rng, 3, 2, 4)
        tokens = rng.normal(size=(6, 3))
        one = scene_tokens([tokens], params)
        two = scene_tokens([tokens, tokens], params)
        np.testing.assert_allclose(one, two, atol=1e-12)

    def test_scene_mean_of_oracle_scans(self):
        rng = np.random.default_rng(12)
        params = init_ssm_params(rng, 3, 2, 4)
        t1, t2 = rng.normal(size=(2, 6, 3))
        out = scene_tokens([t1, t2], params)
        expected = (ssm_scan_oracle(t1, params).outputs + ssm_scan_oracle(t2, params).outputs) / 2.0
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_scene_empty(self):
        # a sample with no detection is all padding: its sequence is zero
        rng = np.random.default_rng(17)
        params = init_ssm_params(rng, 3, 2, 4)
        x = np.zeros((6, 2, 3))
        x[:, 0] = rng.normal(size=(6, 3))
        out = scene_tokens_var(Var(x), layer_vars(params), "", np.array([1, 0])).value
        assert out.shape == (2, 6, 2)
        np.testing.assert_array_equal(out[1], np.zeros((6, 2)))
        np.testing.assert_array_equal(out[0], ssm_scan(x[:, 0], params).outputs)

    def test_holistic_integrator_grows_linearly(self):
        d = 3
        params = integrator_params(d)
        const = np.tile(np.array([1.0, -2.0, 0.5]), (6, 1))
        out = holistic_tokens(const, params)
        for l in range(6):
            np.testing.assert_allclose(out[l], (l + 1) * const[0], atol=1e-12)

    def test_holistic_single_step_closed_form(self):
        rng = np.random.default_rng(13)
        params = init_ssm_params(rng, 4, 3, 2)
        x = rng.normal(size=(1, 4))
        out = holistic_tokens(x, params)
        np.testing.assert_allclose(out, (x @ params.in_proj) @ params.B.T @ params.C.T, atol=1e-12)

    def test_holistic_zero_sequence(self):
        rng = np.random.default_rng(14)
        params = init_ssm_params(rng, 4, 3, 2)
        np.testing.assert_array_equal(holistic_tokens(np.zeros((5, 4)), params), np.zeros((5, 3)))


def test_init_spectral_radius_below_one():
    for seed in range(10):
        params = init_model_params(TrainConfig(d=8, d_s=4, n=6), seed=seed)
        for name in ("keyword", "scene", "holistic_temporal", "holistic_spatial"):
            layer = SsmLayerParams(*(params[f"ssm.{name}.{k}"] for k in ("in_proj", "A", "B", "C")))
            assert layer.spectral_radius() < 1.0


@pytest.mark.parametrize("steps, rows", [(1, 1), (8, 1), (16, 1), (8, 40), (4, 2)])
def test_scan_kernel_is_bitwise_the_per_step_formula(steps, rows):
    """The input terms taken before the loop and the in-place adds round as
    the per-step ``h A^T + x~ B^T`` did: projections, states and outputs."""
    rng = np.random.default_rng(100 * steps + rows)
    p = init_ssm_params(rng, 32, 16, 16)
    a = p.A + 0.05 * rng.normal(size=p.A.shape)  # dense, so every product sums many terms
    x = rng.normal(size=(steps, rows, 32))
    got = _scan_forward(x, p.in_proj, a, p.B, p.C)
    want = composed.scan_forward(x, p.in_proj, a, p.B, p.C)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
