"""Reverse-mode differentiation tape over float64 numpy arrays.

A ``Var`` wraps an ndarray and records a closure that maps the upstream
gradient to gradients for each parent. ``Var.backward`` replays the graph
in reverse topological order and accumulates into ``Var.grad``.

Each model layer is one node with a hand-derived vjp: ``ssm.scan_var`` and,
in ``fusion``, ``cross_attention_var`` (prompt rows included),
``pool_hierarchies_var`` (masked row means and the mean over hierarchies),
``head_var`` and ``loss_var`` (branch averages, per-row BCE plus box error,
aux aggregation and the batch mean). A training step therefore builds a
few dozen nodes, and the time goes into the layers rather than the walk.
This module keeps the walk, ``transpose`` (the one layout op left between
layers) and the two products the layers share: ``stacked_matmul`` (a
forward product that keeps each padded slice's bits, given the slices
``one_row_slices`` finds) and ``weight_grad``
(the gradient of a weight shared across the batch). The composed ops the
fused nodes replaced live on in ``tests/composed.py`` as their reference.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class Var:
    """Node in the computation graph; ``value`` is a float64 ndarray."""

    __slots__ = ("value", "grad", "_parents", "_vjp")

    def __init__(
        self,
        value,
        parents: Sequence["Var"] = (),
        vjp: Callable[[Array], tuple[Array | None, ...]] | None = None,
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Array | None = None
        self._parents = tuple(parents)
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    def backward(self) -> None:
        """Accumulate dself/dleaf into every reachable node's ``grad``.

        The walk orders only nodes with a vjp: a leaf has no parents to
        order, and its children's vjps add into it in the same order.
        """
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
                if p._vjp is not None and id(p) not in seen:
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


def one_row_slices(rows: Array | None) -> Array | None:
    """The leading indices of a padded stack, with ``rows`` real rows per
    index, whose only real row is row 0: the slices ``stacked_matmul``
    recomputes. None when there are none."""
    if rows is None:
        return None
    single = np.flatnonzero(np.asarray(rows) == 1)
    return single if single.size else None


def stacked_matmul(a: Array, b: Array, single: Array | None = None) -> Array:
    """``a @ b`` over the last two axes, each padded slice rounded as if alone.

    numpy hands a one-row product to gemv and a taller one to gemm, and the
    two round differently. So for a padded stacked ``a`` the slices at
    ``single`` (``one_row_slices`` of the real row counts), whose only real
    row is row 0, are recomputed as the one-row product their unpadded
    slice would get.
    """
    out = a @ b
    if single is not None and a.ndim == 3 and a.shape[1] > 1:
        out[single, :1] = a[single, :1] @ (b if b.ndim == 2 else b[single])
    return out


def weight_grad(x: Array, g: Array) -> Array:
    """Gradient of a 2-D weight ``w`` in ``x @ w``, summed over the batch axes."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def transpose(a: Var, axes: tuple[int, ...] | None = None) -> Var:
    """Permute axes; by default swap the last two."""
    if axes is None:
        axes = (*range(a.value.ndim - 2), a.value.ndim - 1, a.value.ndim - 2)
    inverse = tuple(np.argsort(axes))
    return Var(a.value.transpose(axes), (a,), lambda g: (g.transpose(inverse),))
