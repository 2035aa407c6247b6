from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refscan.errors import ConfigError, DimensionError
from refscan.numerics import ParamStore, Var, grad_check, softmax, uniform_init

import composed


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_large_logits_no_overflow():
    np.testing.assert_allclose(softmax([1000.0, 1000.0]), [0.5, 0.5], atol=1e-15)


def test_softmax_closed_form():
    np.testing.assert_allclose(softmax([0.0, np.log(3.0)]), [0.25, 0.75], atol=1e-12)


def test_softmax_empty_rejected():
    with pytest.raises(DimensionError):
        softmax(np.array([]))


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-100, 100))
@settings(max_examples=200, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(logits, shift):
    v = np.asarray(logits)
    p = softmax(v)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p > 0)
    np.testing.assert_allclose(p, softmax(v + shift), atol=1e-12)


def test_uniform_init_bounds():
    rng = np.random.default_rng(1)
    w = uniform_init(rng, 64, (64, 8))
    assert np.all(np.abs(w) <= 1.0 / 8.0)


class TestGradCheck:
    def test_square_closed_form(self):
        params = ParamStore()
        params.add("w", np.array([[3.0]]))

        def loss_fn(pv):
            return composed.sum_all(composed.mul(pv["w"], pv["w"]))

        report = grad_check(loss_fn, params, eps=1e-5)
        row = report.rows[0]
        assert row.checked == 1
        # analytic 6 vs finite differences, which are exact for quadratics
        assert report.max_rel_err <= 1e-6

    def test_constant_function_zero_grads(self):
        params = ParamStore()
        params.add("w", np.array([1.0, -2.0]))

        def loss_fn(pv):
            return Var(np.asarray(4.2))

        report = grad_check(loss_fn, params, eps=1e-5)
        assert report.max_rel_err == 0.0

    def test_selection_flip_entries_are_skipped(self):
        params = ParamStore()
        params.add("w", np.array([0.5]))

        def loss_fn(pv):
            # signature depends on the sign, so any perturbation of an entry
            # sitting exactly at the boundary flips it
            sig = params["w"][0] > 0.5
            return composed.sum_all(pv["w"]), sig

        report = grad_check(loss_fn, params, eps=1e-5)
        assert report.rows[0].skipped == 1
        assert report.rows[0].checked == 0

    def test_nonfinite_loss_flags_and_aborts(self):
        params = ParamStore()
        params.add("bad", np.array([0.0]))
        params.add("good", np.array([1.0]))

        def loss_fn(pv):
            if params["bad"][0] != 0.0:
                return Var(np.asarray(np.inf))
            return composed.sum_all(pv["good"])

        report = grad_check(loss_fn, params, eps=1e-5)
        assert report.aborted
        assert report.flagged_param == "bad"

    def test_rejects_nonpositive_eps(self):
        params = ParamStore()
        params.add("w", np.array([1.0]))
        with pytest.raises(ConfigError):
            grad_check(lambda pv: composed.sum_all(pv["w"]), params, eps=0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_nonfinite_eps(self, eps):
        params = ParamStore()
        params.add("w", np.array([1.0]))
        with pytest.raises(ConfigError):
            grad_check(lambda pv: composed.sum_all(pv["w"]), params, eps=eps)

    def test_nonfinite_analytic_gradient_fails(self):
        params = ParamStore()
        params.add("w", np.array([1.0, 2.0]))

        def loss_fn(pv):
            w = pv["w"]
            return Var(np.asarray(w.value.sum()), (w,), lambda g: (np.array([np.nan, 1.0]) * g,))

        report = grad_check(loss_fn, params, eps=1e-5)
        assert report.rows[0].checked == 2
        assert report.max_rel_err == np.inf and np.isnan(report.rows[0].worst_analytic)
        assert not report.passed(1e-4)


class TestTapeOps:
    """FD spot checks for each composed reference op against random inputs."""

    @pytest.mark.parametrize(
        "name",
        ["matmul", "add_rowvec", "mul", "relu", "sigmoid", "log", "softmax_rows",
         "mean_rows", "concat_rows", "take_row", "clip"],
    )
    def test_op_gradient(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        params = ParamStore()
        base = rng.normal(size=(3, 4))
        params.add("a", np.abs(base) + 0.5 if name == "log" else base)
        if name == "matmul":
            params.add("b", rng.normal(size=(4, 2)))
        elif name == "add_rowvec":
            params.add("b", rng.normal(size=4))
        elif name in ("mul", "concat_rows"):
            params.add("b", rng.normal(size=(3, 4)))

        def loss_fn(pv):
            if name == "matmul":
                out = composed.matmul(pv["a"], pv["b"])
            elif name == "add_rowvec":
                out = composed.add_rowvec(pv["a"], pv["b"])
            elif name == "mul":
                out = composed.mul(pv["a"], pv["b"])
            elif name == "relu":
                out = composed.relu(pv["a"])
            elif name == "sigmoid":
                out = composed.sigmoid(pv["a"])
            elif name == "log":
                out = composed.log(pv["a"])
            elif name == "softmax_rows":
                out = composed.softmax_rows(pv["a"])
            elif name == "mean_rows":
                out = composed.mean_rows(pv["a"])
            elif name == "concat_rows":
                out = composed.concat_rows([pv["a"], pv["b"]])
            elif name == "take_row":
                out = composed.take_row(pv["a"], 1)
            elif name == "clip":
                out = composed.clip(pv["a"], -0.5, 0.5)
            # weighted sum makes every output entry matter differently
            w = Var(np.arange(1.0, out.value.size + 1).reshape(out.value.shape))
            return composed.sum_all(composed.mul(out, w))

        report = grad_check(loss_fn, params, eps=1e-6)
        assert report.max_rel_err <= 1e-7, report.format_table()

    def test_backward_accumulates_through_shared_nodes(self):
        x = Var(np.array([[2.0]]))
        y = composed.add(composed.mul(x, x), composed.mul(x, x))  # 2x^2, dy/dx = 4x = 8
        y.backward()
        np.testing.assert_allclose(x.grad, [[8.0]])


def test_param_store_shape_guard():
    params = ParamStore()
    params.add("w", np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        params["w"] = np.zeros(3)
    with pytest.raises(ConfigError):
        params.add("w", np.zeros(1))


def test_param_store_views_share_the_flat_vectors():
    params = ParamStore()
    params.add("a", np.arange(6.0).reshape(2, 3))
    params.add("b", np.array([7.0, 8.0]))
    a, b = params["a"], params["b"]
    assert a.flags.c_contiguous and a.flags.writeable and np.shares_memory(a, params.flat_values)
    np.testing.assert_array_equal(params.flat_values, [0, 1, 2, 3, 4, 5, 7, 8])
    a.reshape(-1)[4] = -1.0  # how grad_check perturbs an entry
    params["b"] = np.array([9.0, 10.0])
    np.testing.assert_array_equal(params.flat_values, [0, 1, 2, 3, -1, 5, 9, 10])
    assert b[1] == 10.0
    vb = Var(b)
    vb.grad = params.grad("b")  # how training points a leaf's gradient at the store
    vb.grad += np.array([1.0, 2.0])
    np.testing.assert_array_equal(params.flat_grads, [0, 0, 0, 0, 0, 0, 1, 2])
    np.testing.assert_array_equal(params.grad("b"), [1.0, 2.0])
    params.zero_grads()
    assert not params.flat_grads.any() and params.num_scalars() == 8
