"""Reverse-mode differentiation tape over float64 numpy arrays.

A ``Var`` wraps an ndarray and records, per op, a closure that maps the
upstream gradient to gradients for each parent. ``Var.backward`` replays the
graph in reverse topological order and accumulates into ``Var.grad``. The
op set is intentionally small: exactly what the model forward needs, all in
double precision. Matrix ops act on the last two axes, so a batch rides
along leading axes; a 2-D weight broadcasts over them in ``matmul`` and
``concat_rows``, and its gradient is summed over the batch.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import DimensionError

Array = np.ndarray


def as_f64(x) -> Array:
    a = np.asarray(x, dtype=np.float64)
    return a


class Var:
    """Node in the computation graph; ``value`` is a float64 ndarray."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(
        self,
        value,
        parents: Sequence["Var"] = (),
        vjp: Callable[[Array], tuple[Array | None, ...]] | None = None,
    ):
        self.value = as_f64(value)
        self.grad: Array | None = None
        self._parents = tuple(parents)
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def backward(self) -> None:
        """Accumulate dself/dleaf into every reachable node's ``grad``."""
        topo: list[Var] = []
        seen: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            parent_grads = node._vjp(node.grad)
            for parent, g in zip(node._parents, parent_grads):
                if g is None:
                    continue
                if parent.grad is None:  # laid out like the value, as zeros_like would be
                    parent.grad = np.empty_like(parent.value)
                    parent.grad[...] = g
                else:
                    parent.grad += g

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Var") -> "Var":
        return add(self, other)

    def __sub__(self, other: "Var") -> "Var":
        return add(self, scale(other, -1.0))

    def __mul__(self, other: "Var") -> "Var":
        return mul(self, other)


def constant(x) -> Var:
    return Var(x)


def _same_shape(a: Var, b: Var, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")


def add(a: Var, b: Var) -> Var:
    _same_shape(a, b, "add")
    return Var(a.value + b.value, (a, b), lambda g: (g, g))


def add_rowvec(x: Var, b: Var) -> Var:
    """Broadcast a length-m row vector over the rows of an (..., n, m) array."""
    m = x.value.shape[-1] if x.value.ndim >= 2 else None
    if m is None or b.value.shape != (m,):
        raise DimensionError(
            f"add_rowvec: matrix {x.value.shape} incompatible with vector {b.value.shape}"
        )
    return Var(x.value + b.value, (x, b), lambda g: (g, g.reshape(-1, m).sum(axis=0)))


def mul(a: Var, b: Var) -> Var:
    _same_shape(a, b, "mul")
    return Var(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def scale(a: Var, c: float | Array) -> Var:
    """Multiply by a constant: a float, or an array that broadcasts to ``a``."""
    c = np.asarray(c, dtype=np.float64) if isinstance(c, np.ndarray) else float(c)
    out = a.value * c
    if out.shape != a.value.shape:
        raise DimensionError(f"scale: factor {np.shape(c)} would reshape {a.value.shape}")
    return Var(out, (a,), lambda g: (g * c,))


def matmul(a: Var, b: Var, rows: Array | None = None) -> Var:
    """Product over the last two axes; leading axes broadcast as in ``np.matmul``.

    ``rows`` gives, for a padded stacked ``a``, the number of real rows per
    leading index. numpy hands a one-row product to gemv and a taller one to
    gemm, and the two round differently, so a slice whose only real row is
    row 0 is recomputed as the one-row product its unpadded slice would get.
    """
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2 or av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"matmul: shapes {av.shape} and {bv.shape} do not conform")
    out = av @ bv
    if rows is not None and av.ndim == 3 and av.shape[1] > 1:
        single = np.flatnonzero(np.asarray(rows) == 1)
        if single.size:
            out[single, :1] = av[single, :1] @ (bv if bv.ndim == 2 else bv[single])

    def vjp(g: Array):
        ga = g @ np.swapaxes(bv, -1, -2)
        if bv.ndim == 2 and av.ndim > 2:  # weight shared across the batch
            gb = av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = np.swapaxes(av, -1, -2) @ g
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

    return Var(out, (a, b), vjp)


def _unbroadcast(g: Array, shape: tuple) -> Array:
    """Sum a gradient over the leading axes its operand was broadcast along."""
    if g.shape == shape:
        return g
    return g.reshape(-1, *shape).sum(axis=0)


def transpose(a: Var, axes: tuple[int, ...] | None = None) -> Var:
    """Permute axes; by default swap the last two."""
    if axes is None:
        axes = (*range(a.value.ndim - 2), a.value.ndim - 1, a.value.ndim - 2)
    inverse = tuple(np.argsort(axes))
    return Var(a.value.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    return Var(a.value.reshape(shape), (a,), lambda g: (g.reshape(a.value.shape),))


def relu(a: Var) -> Var:
    mask = a.value > 0.0
    return Var(a.value * mask, (a,), lambda g: (g * mask,))


def sigmoid(a: Var) -> Var:
    with np.errstate(over="ignore"):  # exp overflow saturates cleanly to 0
        y = 1.0 / (1.0 + np.exp(-a.value))
    return Var(y, (a,), lambda g: (g * y * (1.0 - y),))


def log(a: Var) -> Var:
    return Var(np.log(a.value), (a,), lambda g: (g / a.value,))


def clip(a: Var, lo: float, hi: float) -> Var:
    """Clamp values; gradient is identity inside the band, zero outside."""
    inside = (a.value >= lo) & (a.value <= hi)
    return Var(np.clip(a.value, lo, hi), (a,), lambda g: (g * inside,))


def softmax_rows(a: Var) -> Var:
    """Stable softmax along the last axis of an array of rows."""
    if a.value.ndim < 2 or a.value.shape[-1] == 0:
        raise DimensionError(f"softmax_rows: need nonempty rows, got {a.value.shape}")
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g: Array):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - dot) * y,)

    return Var(y, (a,), vjp)


def mean_rows(a: Var, mask: Array | None = None) -> Var:
    """Mean over the rows (axis -2), keeping a one-row axis.

    ``mask`` (shape ``a.shape[:-1]``) leaves padded rows out of the mean; a
    slice with no row left averages to zero. Sum then divide, as ``np.mean``
    does, so an all-true mask gives the unmasked bits.
    """
    n = a.value.shape[-2] if a.value.ndim >= 2 else 0
    if n == 0:
        raise DimensionError(f"mean_rows: no rows in {a.value.shape}")
    if mask is None:
        out = a.value.mean(axis=-2, keepdims=True)
        return Var(out, (a,), lambda g: (np.broadcast_to(g / n, a.value.shape),))
    w = np.asarray(mask, dtype=np.float64)[..., None]
    count = np.maximum(w.sum(axis=-2, keepdims=True), 1.0)
    out = (a.value * w).sum(axis=-2, keepdims=True) / count
    return Var(out, (a,), lambda g: (g * w / count,))


def mean_all(a: Var) -> Var:
    n = a.value.size
    return Var(
        np.asarray(a.value.mean()),
        (a,),
        lambda g: (np.full_like(a.value, float(g) / n),),
    )


def sum_all(a: Var) -> Var:
    return Var(np.asarray(a.value.sum()), (a,), lambda g: (np.full_like(a.value, float(g)),))


def sum_axis(a: Var, axis: int) -> Var:
    """Sum over one axis, dropping it."""
    out = a.value.sum(axis=axis)
    return Var(out, (a,), lambda g: (np.broadcast_to(np.expand_dims(g, axis), a.value.shape),))


def concat_rows(parts: Sequence[Var]) -> Var:
    """Stack blocks along the row axis (-2); leading axes broadcast."""
    parts = [p for p in parts]
    if not parts:
        raise DimensionError("concat_rows: no blocks")
    if any(p.value.ndim < 2 for p in parts):
        raise DimensionError(f"concat_rows: blocks must be matrices, got {[p.shape for p in parts]}")
    widths = {p.value.shape[-1] for p in parts}
    if len(widths) != 1:
        raise DimensionError(f"concat_rows: column counts differ: {sorted(widths)}")
    lead = np.broadcast_shapes(*(p.value.shape[:-2] for p in parts))
    blocks = [np.broadcast_to(p.value, (*lead, *p.value.shape[-2:])) for p in parts]
    offsets = np.cumsum([0] + [p.value.shape[-2] for p in parts])

    def vjp(g: Array):
        return tuple(
            _unbroadcast(g[..., offsets[i] : offsets[i + 1], :], p.value.shape)
            for i, p in enumerate(parts)
        )

    return Var(np.concatenate(blocks, axis=-2), parts, vjp)


def take_row(a: Var, i: int) -> Var:
    """Select index ``i`` of the leading axis, keeping that axis (length 1)."""

    def vjp(g: Array):
        out = np.zeros_like(a.value)
        out[i] = g[0]
        return (out,)

    return Var(a.value[i : i + 1], (a,), vjp)


def mean_of(parts: Sequence[Var]) -> Var:
    """Elementwise mean of same-shaped Vars."""
    total = parts[0]
    for p in parts[1:]:
        total = add(total, p)
    return scale(total, 1.0 / len(parts))
