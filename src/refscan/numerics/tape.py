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
forward product that keeps each padded slice's bits) and ``weight_grad``
(the gradient of a weight shared across the batch). The composed ops the
fused nodes replaced live on in ``tests/composed.py`` as their reference.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

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


def stacked_matmul(a: Array, b: Array, rows: Array | None = None) -> Array:
    """``a @ b`` over the last two axes, each padded slice rounded as if alone.

    ``rows`` gives, for a padded stacked ``a``, the number of real rows per
    leading index. numpy hands a one-row product to gemv and a taller one to
    gemm, and the two round differently, so a slice whose only real row is
    row 0 is recomputed as the one-row product its unpadded slice would get.
    """
    out = a @ b
    if rows is not None and a.ndim == 3 and a.shape[1] > 1:
        single = np.flatnonzero(np.asarray(rows) == 1)
        if single.size:
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
