"""Dense float64 building blocks used throughout the pipeline.

A "dense matrix" here is a 2-D contiguous float64 ndarray (row-major); the
helpers below validate that convention and implement the handful of
elementary ops the rest of the package is specified against.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError


def dense(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a 2-D float64 array, optionally checking its shape."""
    a = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if a.ndim != 2:
        raise DimensionError(f"dense matrix must be 2-D, got ndim={a.ndim}")
    if rows is not None and a.shape[0] != rows:
        raise DimensionError(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise DimensionError(f"expected {cols} cols, got {a.shape[1]}")
    return a


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y = x @ w + b with b broadcast over rows."""
    x = dense(x)
    w = dense(w)
    b = np.asarray(b, dtype=np.float64)
    if x.shape[1] != w.shape[0]:
        raise DimensionError(f"linear: x {x.shape} does not conform with w {w.shape}")
    if b.shape != (w.shape[1],):
        raise DimensionError(f"linear: bias {b.shape} does not match output dim {w.shape[1]}")
    return x @ w + b


def softmax(v: np.ndarray) -> np.ndarray:
    """Stable softmax of a 1-D vector (max subtraction before exp)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"softmax: need a nonempty vector, got shape {v.shape}")
    e = np.exp(v - v.max())
    return e / e.sum()


def uniform_init(rng: np.random.Generator, fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
    """uniform(-s, s) with s = 1/sqrt(fan_in)."""
    s = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-s, s, size=shape).astype(np.float64)
