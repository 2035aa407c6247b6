"""Linear state-space scans that aggregate trajectories at each hierarchy.

The recurrence is h(l) = A h(l-1) + B x~(l) with x~ = in_proj(x), readout
y(l) = C h(l), zero initial state, unit step size. One kernel serves
``ssm_scan`` (one sequence) and ``scan_var`` (the tape node, many
sequences at once, with a hand-derived backward recurrence instead of
taping every step): it runs all rows together and loops only over time.
``ssm_scan_oracle`` is the deliberately naive scalar-loop twin every
optimization must keep matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .numerics import uniform_init
from .numerics.tape import Var
from .retrieval import TrajectorySet


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
    def in_dim(self) -> int:
        return self.in_proj.shape[0]

    @property
    def out_dim(self) -> int:
        return self.in_proj.shape[1]

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))


def init_ssm_params(rng: np.random.Generator, d: int, d_s: int, n: int) -> SsmLayerParams:
    """Stable-at-init layer: A diagonal in (0.5, 0.95), projections 1/sqrt(fan_in)."""
    a = np.diag(rng.uniform(0.5, 0.95, size=n))
    params = SsmLayerParams(
        in_proj=uniform_init(rng, d, (d, d_s)),
        A=a,
        B=uniform_init(rng, d_s, (n, d_s)),
        C=uniform_init(rng, n, (d_s, n)),
    )
    assert params.spectral_radius() < 1.0
    return params


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
    looped. Every product is stacked over one-row slices, ``(.., 1, k) @ W``,
    which numpy runs as one vector-matrix product per row: each row rounds
    exactly as a lone sequence would, whatever the row count, and
    truncating the input in time is bitwise prefix-consistent. One flat 2-D
    matmul over all rows would round differently with the row count.
    """
    steps, rows = x.shape[0], x.shape[1]
    xt = x[:, :, None, :] @ in_proj
    states = np.empty((steps, rows, 1, a.shape[0]), dtype=np.float64)
    h = np.zeros((rows, 1, a.shape[0]), dtype=np.float64)
    at, bt = a.T, b.T
    for l in range(steps):
        h = h @ at + xt[l] @ bt
        states[l] = h
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


@dataclass
class SsmParamVars:
    """Tape leaves for one scan layer, as registered in a ParamStore."""

    in_proj: Var
    A: Var
    B: Var
    C: Var


def scan_var(x: Var, p: SsmParamVars) -> Var:
    """Tape node for a batch of scans; backward is the reverse-time recurrence.

    ``x`` is time-major, (T, rows, d), one independent sequence per row, or
    a single (T, d) sequence. One node instead of ~4T per row, with the
    gradient recurrence dL/dh(l) = direct(l) + dL/dh(l+1) A run in reverse
    for all rows at once.
    """
    xv = x.value
    _check_scan_inputs(xv, p.in_proj.value)
    win, a, b, c = p.in_proj.value, p.A.value, p.B.value, p.C.value
    x3 = xv if xv.ndim == 3 else xv[:, None, :]
    xt, states, outputs = _scan_forward(x3, win, a, b, c)
    steps, n = x3.shape[0], a.shape[0]

    def flat(arr: np.ndarray) -> np.ndarray:  # (T, rows, k) -> (T * rows, k)
        return arr.reshape(-1, arr.shape[-1])

    def vjp(g: np.ndarray):
        g = g.reshape(outputs.shape)
        d_c = flat(g).T @ flat(states)
        d_states = g @ c
        acc = np.empty_like(states)
        acc[steps - 1] = d_states[steps - 1]
        for l in range(steps - 2, -1, -1):
            acc[l] = d_states[l] + acc[l + 1] @ a
        prev = np.concatenate([np.zeros((1, *states.shape[1:])), states[:-1]])
        d_a = flat(acc).T @ flat(prev)
        d_b = flat(acc).T @ flat(xt)
        d_xt = acc @ b
        d_win = flat(x3).T @ flat(d_xt)
        d_x = (d_xt @ win.T).reshape(xv.shape)
        return (d_x, d_win, d_a, d_b, d_c)

    return Var(outputs if xv.ndim == 3 else outputs[:, 0], (x, p.in_proj, p.A, p.B, p.C), vjp)


def aggregate_keyword(traj_set: TrajectorySet, params: SsmLayerParams) -> np.ndarray:
    """Final-step readout per trajectory: one aggregated token per keyword."""
    if len(traj_set) == 0:
        return np.zeros((0, params.out_dim))
    return np.stack([ssm_scan(t.tokens, params).outputs[-1] for t in traj_set.trajectories])


def aggregate_scene(traj_set: TrajectorySet, params: SsmLayerParams) -> np.ndarray:
    """Per-timestep outputs averaged across the attribute trajectories."""
    if len(traj_set) == 0:
        return np.zeros((0, params.out_dim))
    scans = [ssm_scan(t.tokens, params).outputs for t in traj_set.trajectories]
    return np.mean(scans, axis=0)


def aggregate_holistic(branch_tokens: np.ndarray, params: SsmLayerParams) -> np.ndarray:
    """Single scan over a pooled branch sequence; all per-step outputs."""
    return ssm_scan(branch_tokens, params).outputs
