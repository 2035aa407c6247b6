"""Named parameter storage over one flat value vector and one flat gradient vector."""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from ..errors import ConfigError, DimensionError
from .tape import Var


class ParamStore:
    """Name -> float64 array map plus same-shaped gradients.

    All values live in one contiguous vector (``flat_values``) and all
    gradients in a second (``flat_grads``); each name maps to a contiguous,
    writable view of its slice, so whole-store work (the optimizer, zeroing,
    finiteness checks) is one numpy call. Names are unique; gradient shape
    always matches the parameter shape. ``add`` grows the backing buffers
    geometrically and, when it does, moves every view; arrays fetched before
    that no longer alias the store, so fetch views once the store is
    complete. The store remembers the seed it was initialized from so
    checkpoints can reproduce it.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._value_buf = np.zeros(0)
        self._grad_buf = np.zeros(0)
        self.flat_values = self._value_buf
        self.flat_grads = self._grad_buf
        self._params: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> np.ndarray:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        arr = np.asarray(value, dtype=np.float64)
        start = self.flat_values.size
        end = start + arr.size
        if end > self._value_buf.size:
            self._grow(max(end, 2 * self._value_buf.size))
        self.flat_values = self._value_buf[:end]
        self.flat_grads = self._grad_buf[:end]
        self.flat_values[start:end] = arr.reshape(-1)
        self._params[name] = self.flat_values[start:end].reshape(arr.shape)
        self._grads[name] = self.flat_grads[start:end].reshape(arr.shape)
        return self._params[name]

    def _grow(self, capacity: int) -> None:
        """Move values and gradients into larger buffers and re-point every view."""
        size = self.flat_values.size
        self._value_buf, self._grad_buf = np.zeros(capacity), np.zeros(capacity)
        self._value_buf[:size] = self.flat_values
        self._grad_buf[:size] = self.flat_grads
        for name, span in self.flat_slices():
            shape = self._params[name].shape
            self._params[name] = self._value_buf[span].reshape(shape)
            self._grads[name] = self._grad_buf[span].reshape(shape)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> np.ndarray:
        return self._params[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name not in self._params:
            raise ConfigError(f"unknown parameter {name!r}")
        if self._params[name].shape != np.shape(value):
            raise DimensionError(
                f"parameter {name!r}: cannot assign shape {np.shape(value)} "
                f"over {self._params[name].shape}"
            )
        self._params[name][...] = value

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return iter(self._params.items())

    def flat_slices(self) -> Iterator[tuple[str, slice]]:
        """Each name with the slice of ``flat_values`` its view covers."""
        start = 0
        for name, arr in self._params.items():
            yield name, slice(start, start + arr.size)
            start += arr.size

    def zero_grads(self) -> None:
        self.flat_grads[...] = 0.0

    def as_vars(self) -> dict[str, Var]:
        """Fresh leaf Vars viewing the current parameter values."""
        return {name: Var(arr) for name, arr in self._params.items()}

    def accumulate_grads(self, param_vars: Mapping[str, Var]) -> None:
        """Fold gradients from a backward pass into the store buffers."""
        for name, var in param_vars.items():
            if var.grad is not None:
                self._grads[name] += var.grad

    def num_scalars(self) -> int:
        return int(self.flat_values.size)
