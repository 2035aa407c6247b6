"""Composed reference for the fused tape nodes of ``refscan.fusion``.

These are the elementwise tape ops the model was built from before each
layer became one node with a hand-derived vjp, and the layer bodies
composed from them, kept as the reference the fused nodes must match:
forward values bitwise, gradients within 1e-12 relative. Each ``*_var``
layer here takes the arguments of its namesake in ``refscan.fusion``, so a
test can swap it in for the fused one.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from refscan.errors import ConfigError, DimensionError
from refscan.fusion import PROB_EPS
from refscan.numerics.tape import Array, Var, one_row_slices, stacked_matmul, transpose, weight_grad
from refscan.ssm import scan_var

# -- elementwise ops ------------------------------------------------------------


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


def scale(a: Var, c: float | Array) -> Var:
    """Multiply by a constant: a float, or an array that broadcasts to ``a``."""
    c = np.asarray(c, dtype=np.float64) if isinstance(c, np.ndarray) else float(c)
    out = a.value * c
    if out.shape != a.value.shape:
        raise DimensionError(f"scale: factor {np.shape(c)} would reshape {a.value.shape}")
    return Var(out, (a,), lambda g: (g * c,))


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    return Var(a.value.reshape(shape), (a,), lambda g: (g.reshape(a.value.shape),))


def sum_axis(a: Var, axis: int) -> Var:
    """Sum over one axis, dropping it."""
    out = a.value.sum(axis=axis)
    return Var(out, (a,), lambda g: (np.broadcast_to(np.expand_dims(g, axis), a.value.shape),))


def take_row(a: Var, i: int) -> Var:
    """Select index ``i`` of the leading axis, keeping that axis (length 1)."""

    def vjp(g: Array):
        out = np.zeros_like(a.value)
        out[i] = g[0]
        return (out,)

    return Var(a.value[i : i + 1], (a,), vjp)


def mul(a: Var, b: Var) -> Var:
    _same_shape(a, b, "mul")
    return Var(a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value))


def matmul(a: Var, b: Var, rows: Array | None = None) -> Var:
    """Product over the last two axes; leading axes broadcast as in ``np.matmul``."""
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2 or av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"matmul: shapes {av.shape} and {bv.shape} do not conform")

    def vjp(g: Array):
        ga = g @ np.swapaxes(bv, -1, -2)
        if bv.ndim == 2 and av.ndim > 2:  # weight shared across the batch
            gb = weight_grad(av, g)
        else:
            gb = np.swapaxes(av, -1, -2) @ g
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

    return Var(stacked_matmul(av, bv, one_row_slices(rows)), (a, b), vjp)


def _unbroadcast(g: Array, shape: tuple) -> Array:
    """Sum a gradient over the leading axes its operand was broadcast along."""
    if g.shape == shape:
        return g
    return g.reshape(-1, *shape).sum(axis=0)


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
    """Mean over the rows (axis -2), keeping a one-row axis; ``mask`` leaves
    padded rows out, and a slice with no row left averages to zero."""
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


def sum_all(a: Var) -> Var:
    return Var(np.asarray(a.value.sum()), (a,), lambda g: (np.full_like(a.value, float(g)),))


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


def mean_of(parts: Sequence[Var]) -> Var:
    """Elementwise mean of same-shaped Vars."""
    total = parts[0]
    for p in parts[1:]:
        total = add(total, p)
    return scale(total, 1.0 / len(parts))


# -- composed layers ---------------------------------------------------------------


def keyword_tokens_var(x: Var, p, n_b: int) -> Var:
    finals = take_row(scan_var(x, p), x.value.shape[0] - 1)
    return reshape(finals, (n_b, -1, finals.value.shape[-1]))


def scene_tokens_var(x: Var, p, counts: Array) -> Var:
    frames = x.value.shape[0]
    scans = scan_var(x, p)
    total = sum_axis(reshape(scans, (frames, len(counts), int(counts.max()), -1)), 2)
    mean = scale(total, (1.0 / np.maximum(counts, 1))[None, :, None])
    return transpose(mean, (1, 0, 2))


def cross_attention_var(queries: Var, context: Var, p, rows=None) -> Var:
    if context.value.shape[-2] < 1:
        raise DimensionError("cross_attention: empty context")
    d_a = p.w_q.value.shape[1]
    n_p = p.prompts.value.shape[0]
    counts = None if rows is None else rows.counts
    q_proj = matmul(queries, p.w_q, counts)
    q_full = concat_rows([q_proj, p.prompts]) if n_p > 0 else q_proj
    full_rows = None if counts is None else counts + n_p
    keys = matmul(context, p.w_k)
    values = matmul(context, p.w_v)
    scores = scale(matmul(q_full, transpose(keys), full_rows), 1.0 / np.sqrt(d_a))
    return matmul(softmax_rows(scores), values, full_rows)


def pool_hierarchies_var(parts) -> Var:
    if not parts:
        raise ConfigError("no hierarchy enabled")
    total = None
    count = np.zeros(len(parts[0][1].used))
    for out, part in parts:
        used = part.used
        pooled = mean_rows(out, part.mask)
        term = pooled if used.all() else scale(pooled, used[:, None, None])
        total = term if total is None else add(total, term)
        count += used
    return scale(total, (1.0 / count)[:, None, None])


def head_var(z: Var, p) -> tuple[Var, Array]:
    pre = add_rowvec(matmul(z, p.w1), p.b1)
    out = sigmoid(add_rowvec(matmul(relu(pre), p.w2), p.b2))
    return out, pre.value > 0.0


def _bce_rows(y: Array, probs: Var) -> Var:
    n_c = probs.value.shape[-1]
    yv = Var(np.asarray(y, dtype=np.float64).reshape(probs.value.shape))
    ones = Var(np.ones_like(yv.value))
    p = clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    term = add(
        mul(yv, log(p)),
        mul(add(ones, scale(yv, -1.0)), log(add(ones, scale(p, -1.0)))),
    )
    return scale(sum_axis(term, -1), -1.0 / n_c)


def _box_rows(b: Array, bbox: Var) -> Var:
    diff = add(bbox, Var(-np.asarray(b, dtype=np.float64).reshape(bbox.value.shape)))
    return sum_axis(mul(diff, diff), -1)


def _clip_band(probs: Var) -> Array:
    return (probs.value >= PROB_EPS) & (probs.value <= 1.0 - PROB_EPS)


def loss_var(bbox, probs, gt, labels, lambda_box: float, aux: bool) -> tuple[Var, list[Array]]:
    bbox_var, probs_var = mean_of(bbox), mean_of(probs)

    def row_loss(b: Var, p: Var) -> Var:
        return add(_bce_rows(labels, p), scale(_box_rows(gt, b), lambda_box))

    per_sample = row_loss(bbox_var, probs_var)
    bands = [_clip_band(probs_var)]
    if aux:
        per_sample = add(per_sample, mean_of([row_loss(b, p) for b, p in zip(bbox, probs)]))
        bands += [_clip_band(p) for p in probs]
    return scale(sum_all(per_sample), 1.0 / per_sample.value.shape[0]), bands
