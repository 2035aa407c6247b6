"""Float64 helpers: the stable vector softmax and the uniform initializer."""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError


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
