from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refscan.errors import ConfigError, DimensionError
from refscan.numerics.gradcheck import grad_check
from refscan.numerics.linalg import softmax, uniform_init
from refscan.numerics.params import ParamStore
from refscan.numerics.tape import Var

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
        params = ParamStore({"w": np.array([[3.0]])})

        def loss_fn(pv):
            return composed.sum_all(composed.mul(pv["w"], pv["w"]))

        report = grad_check(loss_fn, params, eps=1e-5)
        row = report.rows[0]
        assert row.checked == 1
        # analytic 6 vs finite differences, which are exact for quadratics
        assert report.max_rel_err <= 1e-6

    def test_constant_function_zero_grads(self):
        params = ParamStore({"w": np.array([1.0, -2.0])})

        def loss_fn(pv):
            return Var(np.asarray(4.2))

        report = grad_check(loss_fn, params, eps=1e-5)
        assert report.max_rel_err == 0.0
        assert grad_check(loss_fn, ParamStore({}), eps=1e-5).rows == []

    def test_selection_flip_entries_are_skipped(self):
        params = ParamStore({"w": np.array([0.5])})

        def loss_fn(pv):
            # signature depends on the sign, so any perturbation of an entry
            # sitting exactly at the boundary flips it
            sig = params["w"][0] > 0.5
            return composed.sum_all(pv["w"]), sig

        report = grad_check(loss_fn, params, eps=1e-5)
        assert report.rows[0].skipped == 1
        assert report.rows[0].checked == 0

    def test_nonfinite_loss_flags_and_aborts(self):
        params = ParamStore({"bad": np.array([0.0]), "good": np.array([1.0])})

        def loss_fn(pv):
            if params["bad"][0] != 0.0:
                return Var(np.asarray(np.inf))
            return composed.sum_all(pv["good"])

        report = grad_check(loss_fn, params, eps=1e-5)
        assert report.aborted
        assert report.flagged_param == "bad"

    def test_loss_that_is_a_parameter_leaf(self):
        params = ParamStore({"w": np.array(2.0)})
        report = grad_check(lambda pv: pv["w"], params, eps=1e-5)
        assert report.rows[0].checked == 1 and report.max_rel_err <= 1e-9
        assert params.leaves["w"].grad is params.grad("w") == 1.0

    def test_rejects_nonpositive_eps(self):
        params = ParamStore({"w": np.array([1.0])})
        with pytest.raises(ConfigError):
            grad_check(lambda pv: composed.sum_all(pv["w"]), params, eps=0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_nonfinite_eps(self, eps):
        params = ParamStore({"w": np.array([1.0])})
        with pytest.raises(ConfigError):
            grad_check(lambda pv: composed.sum_all(pv["w"]), params, eps=eps)

    def test_nonfinite_analytic_gradient_fails(self):
        params = ParamStore({"w": np.array([1.0, 2.0])})

        def loss_fn(pv):
            w = pv["w"]
            return Var(np.asarray(w.value.sum()), (w,), lambda g: (np.array([np.nan, 1.0]) * g,))

        report = grad_check(loss_fn, params, eps=1e-5)
        assert report.rows[0].checked == 2
        assert report.max_rel_err == np.inf and np.isnan(report.rows[0].worst_analytic)
        assert not report.passed(1e-4)


def report_bits(report) -> tuple:
    """Every field of a report, its floats as bytes."""
    def bits(*xs):
        return tuple(np.float64(x).tobytes() for x in xs)

    rows = [(r.name, r.checked, r.skipped, bits(r.max_rel_err, r.worst_analytic, r.worst_numeric)) for r in report.rows]
    return bits(report.eps, report.max_rel_err), report.aborted, report.flagged_param, rows


def moved(params, j: int) -> bool:
    """Whether entry ``j`` of the store is away from its value in SPLIT."""
    return params.flat_values[j] != SPLIT_VALUES[j]


# five scalars over two parameters: with two CPUs this process probes entries
# 0, 2 and 4 and the worker 1 and 3
SPLIT = {"a": np.array([0.5, -1.5, 2.0]), "b": np.array([0.5, 0.25])}
SPLIT_VALUES = np.concatenate(list(SPLIT.values()))


def square(params):
    return lambda pv: composed.sum_all(composed.add(composed.mul(pv["a"], pv["a"]), pv["a"]))


def flips_at_half(params):
    # entries 0 and 3 sit exactly at the boundary: one in each share
    return lambda pv: (composed.sum_all(pv["b"]), tuple(params.flat_values[[0, 3]] > 0.5))


def nonfinite_at(j):
    def make(params):
        def loss_fn(pv):
            if moved(params, j):
                return Var(np.asarray(np.inf))
            return composed.sum_all(pv["b"])

        return loss_fn

    return make


def raises_at(j):
    def make(params):
        def loss_fn(pv):
            if moved(params, j):
                raise ValueError(f"entry {j} moved")
            return composed.sum_all(pv["a"])

        return loss_fn

    return make


class TestGradCheckOnTwoCpus:
    """What grad_check adds to ``fork.deal``, whose dealing tests/test_fork.py
    tests: on one CPU and on two, whatever this host has, the same report or
    the same first exception, and the store's values restored."""

    @staticmethod
    def both(use_cpus, forks, make_loss) -> list:
        """grad_check on one CPU, then on two with a worker forked: each
        run's report bits, or the type and text of what it raised."""
        outcomes = []
        for cpus in (1, 2):
            use_cpus(cpus)
            params = ParamStore(SPLIT)
            try:
                outcomes.append(report_bits(grad_check(make_loss(params), params, eps=1e-5)))
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
            np.testing.assert_array_equal(params.flat_values, SPLIT_VALUES)
        assert len(forks) == 1
        return outcomes

    @pytest.mark.parametrize("make_loss, rows, flagged", [
        (square, [(3, 0), (2, 0)], None),
        (flips_at_half, [(2, 1), (1, 1)], None),
        (nonfinite_at(3), [(3, 0), (0, 0)], "b"),
        (nonfinite_at(2), [(2, 0)], "a"),
    ], ids=["square", "selection flip", "abort in the worker's share", "abort in this share"])
    def test_rows_are_the_one_cpu_rows(self, use_cpus, forks, make_loss, rows, flagged):
        one, two = self.both(use_cpus, forks, make_loss)
        assert two == one
        _, aborted, flagged_param, bits_rows = two
        assert [(checked, skipped) for _, checked, skipped, _ in bits_rows] == rows
        assert (aborted, flagged_param) == (flagged is not None, flagged)

    @pytest.mark.parametrize("j", [3, 2], ids=["worker's share", "this share"])
    def test_a_loss_that_raises_raises_as_on_one_cpu(self, use_cpus, forks, j):
        assert self.both(use_cpus, forks, raises_at(j)) == [(ValueError, f"entry {j} moved")] * 2


class TestTapeOps:
    """FD spot checks for each composed reference op against random inputs."""

    @pytest.mark.parametrize(
        "name",
        ["matmul", "add_rowvec", "mul", "relu", "sigmoid", "log", "softmax_rows",
         "mean_rows", "concat_rows", "take_row", "clip"],
    )
    def test_op_gradient(self, name):
        rng = np.random.default_rng(hash(name) % 2**32)
        base = rng.normal(size=(3, 4))
        arrays = {"a": np.abs(base) + 0.5 if name == "log" else base}
        if name == "matmul":
            arrays["b"] = rng.normal(size=(4, 2))
        elif name == "add_rowvec":
            arrays["b"] = rng.normal(size=4)
        elif name in ("mul", "concat_rows"):
            arrays["b"] = rng.normal(size=(3, 4))
        params = ParamStore(arrays)

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


def test_param_store_views_share_the_flat_vectors():
    params = ParamStore({"a": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0])}, seed=4)
    a, b = params["a"], params["b"]
    assert a.flags.c_contiguous and a.flags.writeable and np.shares_memory(a, params.flat_values)
    np.testing.assert_array_equal(params.flat_values, [0, 1, 2, 3, 4, 5, 7, 8])
    a.reshape(-1)[4] = -1.0  # how grad_check perturbs an entry
    params["b"][...] = np.array([9.0, 10.0])
    np.testing.assert_array_equal(params.flat_values, [0, 1, 2, 3, -1, 5, 9, 10])
    assert b[1] == 10.0 and params.seed == 4 and params.num_scalars() == 8


def test_param_store_leaves_view_the_flat_vectors():
    params = ParamStore({"a": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0])})
    assert list(params.leaves) == ["a", "b"]
    for name, leaf in params.leaves.items():
        assert leaf.value is params[name] and leaf.grad is params.grad(name)
        assert np.shares_memory(leaf.value, params.flat_values)
        assert np.shares_memory(leaf.grad, params.flat_grads)
        assert leaf.value.shape == leaf.grad.shape == params[name].shape
    leaf_a, leaf_b = params.leaves["a"], params.leaves["b"]
    params["b"][...] = np.array([9.0, 10.0])
    params["a"].reshape(-1)[4] = -1.0  # how grad_check perturbs an entry
    np.testing.assert_array_equal(leaf_b.value, [9.0, 10.0])
    assert leaf_a.value[1, 1] == -1.0


def test_param_store_keeps_one_map_its_leaves():
    params = ParamStore({"a": np.arange(6.0).reshape(2, 3), "b": np.array([7.0, 8.0])})
    assert set(vars(params)) == {"seed", "flat_values", "flat_grads", "leaves"}
    for name in params.names():
        assert params[name] is params.leaves[name].value
        assert params.grad(name) is params.leaves[name].grad
    assert [name for name, _ in params.items()] == ["a", "b"]
    assert all(arr is params.leaves[name].value for name, arr in params.items())


def test_backward_adds_into_the_store_gradients():
    params = ParamStore({"a": np.array([[1.0, 2.0]]), "b": np.array([3.0, 4.0])})
    a, b = params.leaves["a"], params.leaves["b"]
    for _ in range(2):  # a second backward adds to the first
        composed.sum_all(composed.mul(a, composed.add_rowvec(a, b))).backward()
    # d/da sum(a * (a + b)) = 2a + b, d/db = a
    np.testing.assert_array_equal(params.flat_grads, [10.0, 16.0, 2.0, 4.0])
    assert a.grad is params.grad("a")
    params.zero_grads()
    assert not a.grad.any() and not b.grad.any()
    composed.sum_all(a).backward()
    np.testing.assert_array_equal(params.flat_grads, [1.0, 1.0, 0.0, 0.0])


def test_backward_of_a_leaf_adds_into_its_store_view():
    params = ParamStore({"a": np.array([1.0, 2.0]), "w": np.array(3.0)})
    w = params.leaves["w"]
    w.backward()
    w.backward()
    assert w.grad is params.grad("w")
    np.testing.assert_array_equal(params.flat_grads, [0.0, 0.0, 2.0])


def test_param_store_leaves_are_read_only():
    params = ParamStore({"w": np.zeros(2)})
    with pytest.raises(TypeError):
        params.leaves["w"] = Var(np.ones(2))
    with pytest.raises(TypeError):
        del params.leaves["w"]
