"""Linear state-space scans that aggregate trajectories at each hierarchy.

The recurrence is h(l) = A h(l-1) + B x~(l) with x~ = in_proj(x), readout
y(l) = C h(l), zero initial state, unit step size. One kernel serves
``ssm_scan`` (one sequence) and ``scan_var`` (the tape node, many
sequences at once, with a hand-derived backward recurrence instead of
taping every step): it runs all rows together and loops only over time.
The input terms B x~(l) of all steps are one product before the loop, so
a step is one product, A h(l-1), added in place into its term; the
backward recurrence accumulates in place the same way.
``ssm_scan_oracle`` is the deliberately naive scalar-loop twin every
optimization must keep matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DimensionError
from .numerics.tape import Var


@dataclass
class SsmLayerParams:
    """One scan layer: input projection plus A/B/C kernels."""

    in_proj: np.ndarray  # (d, d_s)
    A: np.ndarray  # (n, n)
    B: np.ndarray  # (n, d_s)
    C: np.ndarray  # (d_s, n)

    def __post_init__(self):
        self.in_proj = np.asarray(self.in_proj, dtype=np.float64)
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        self.C = np.asarray(self.C, dtype=np.float64)
        n = self.A.shape[0]
        d_s = self.in_proj.shape[1]
        if self.A.shape != (n, n):
            raise DimensionError(f"A must be square, got {self.A.shape}")
        if self.B.shape != (n, d_s):
            raise DimensionError(f"B shape {self.B.shape} != ({n}, {d_s})")
        if self.C.shape != (d_s, n):
            raise DimensionError(f"C shape {self.C.shape} != ({d_s}, {n})")

    @property
    def out_dim(self) -> int:
        return self.in_proj.shape[1]

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))


@dataclass
class ScanOutput:
    outputs: np.ndarray  # (T, d_s), row l = C h(l)
    final_state: np.ndarray  # (n,)


def _check_scan_inputs(x: np.ndarray, in_proj: np.ndarray) -> None:
    if x.ndim not in (2, 3) or x.shape[0] < 1:
        raise DimensionError(f"scan input must be (T>=1, d) or (T>=1, rows, d), got {x.shape}")
    if x.shape[-1] != in_proj.shape[0]:
        raise DimensionError(
            f"scan input dim {x.shape[-1]} does not match in_proj {in_proj.shape}"
        )


def _scan_forward(x, in_proj, a, b, c):
    """Shared forward recurrence over time-major ``x`` (T, rows, d).

    Returns (x_proj, states, outputs), shaped (T, rows, d_s), (T, rows, n)
    and (T, rows, d_s). Rows are independent sequences; only time is
    looped. The input terms B x~(l) of every step are one stacked product
    before the loop, and each step adds A h(l-1) into its term in place:
    one product and one add per step. Every product is stacked over
    one-row slices, ``(.., 1, k) @ W``, which numpy runs as one
    vector-matrix product per row: each row rounds exactly as a lone
    sequence would, whatever the row count, and truncating the input in
    time is bitwise prefix-consistent. One flat 2-D matmul over all rows
    would round differently with the row count.
    """
    rows = x.shape[1]
    xt = x[:, :, None, :] @ in_proj
    states = xt @ b.T  # the input terms, which the loop turns into the states
    h = np.zeros((rows, 1, a.shape[0]), dtype=np.float64)
    at = a.T
    for state in states:
        state += h @ at
        h = state
    outputs = states @ c.T
    return xt[:, :, 0], states[:, :, 0], outputs[:, :, 0]


def ssm_scan(inputs: np.ndarray, params: SsmLayerParams) -> ScanOutput:
    """Run the recurrence over one sequence with zero initial state."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"scan input must be (T>=1, d), got {x.shape}")
    _check_scan_inputs(x, params.in_proj)
    _, states, outputs = _scan_forward(x[:, None, :], params.in_proj, params.A, params.B, params.C)
    return ScanOutput(outputs=outputs[:, 0], final_state=states[-1, 0].copy())


def ssm_scan_oracle(inputs: np.ndarray, params: SsmLayerParams) -> ScanOutput:
    """Literal per-element reference: scalar loops, no vectorization.

    Kept as the fixed point for equivalence testing; do not optimize.
    """
    x = np.asarray(inputs, dtype=np.float64)
    _check_scan_inputs(x, params.in_proj)
    w = params.in_proj.tolist()
    a = params.A.tolist()
    b = params.B.tolist()
    c = params.C.tolist()
    steps, d = x.shape
    d_s, n = params.out_dim, params.state_dim
    xl = x.tolist()
    h = [0.0] * n
    outputs = np.empty((steps, d_s), dtype=np.float64)
    for l in range(steps):
        xt = [sum(xl[l][i] * w[i][j] for i in range(d)) for j in range(d_s)]
        h_new = [
            sum(a[p][q] * h[q] for q in range(n)) + sum(b[p][j] * xt[j] for j in range(d_s))
            for p in range(n)
        ]
        h = h_new
        for o in range(d_s):
            outputs[l][o] = sum(c[o][p] * h[p] for p in range(n))
    return ScanOutput(outputs=outputs, final_state=np.asarray(h, dtype=np.float64))


def scan_var(x: Var, pv: Mapping[str, Var], prefix: str) -> Var:
    """Tape node for a batch of scans; backward is the reverse-time recurrence.

    ``x`` is time-major, (T, rows, d), one independent sequence per row, or
    a single (T, d) sequence. The layer's leaves are ``pv[prefix + name]``
    for ``in_proj``, ``A``, ``B`` and ``C``. One node instead of ~4T per
    row, with the gradient recurrence dL/dh(l) = direct(l) + dL/dh(l+1) A
    run in reverse for all rows at once.
    """
    leaves = tuple(pv[prefix + name] for name in ("in_proj", "A", "B", "C"))
    win, a, b, c = (leaf.value for leaf in leaves)
    xv = x.value
    _check_scan_inputs(xv, win)
    x3 = xv if xv.ndim == 3 else xv[:, None, :]
    xt, states, outputs = _scan_forward(x3, win, a, b, c)
    steps = x3.shape[0]

    def flat(arr: np.ndarray) -> np.ndarray:  # (T, rows, k) -> (T * rows, k)
        return arr.reshape(-1, arr.shape[-1])

    def vjp(g: np.ndarray):
        g = g.reshape(outputs.shape)
        d_c = flat(g).T @ flat(states)
        d_states = g @ c
        acc = np.empty_like(states)
        acc[steps - 1] = d_states[steps - 1]
        for l in range(steps - 2, -1, -1):
            np.add(d_states[l], acc[l + 1] @ a, out=acc[l])
        prev = np.concatenate([np.zeros((1, *states.shape[1:])), states[:-1]])
        d_a = flat(acc).T @ flat(prev)
        d_b = flat(acc).T @ flat(xt)
        d_xt = acc @ b
        d_win = flat(x3).T @ flat(d_xt)
        d_x = (d_xt @ win.T).reshape(xv.shape)
        return (d_x, d_win, d_a, d_b, d_c)

    return Var(outputs if xv.ndim == 3 else outputs[:, 0], (x, *leaves), vjp)
