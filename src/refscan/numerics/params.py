"""Named parameter storage over one flat value vector and one flat gradient vector."""

from __future__ import annotations

import types
from typing import Iterator, Mapping

import numpy as np

from .tape import Var


class ParamStore:
    """Name -> float64 array map plus same-shaped gradients, built whole.

    ``arrays`` is the complete ordered name -> array map; the store copies
    it once into one contiguous vector (``flat_values``) and lays out a
    second of zeros (``flat_grads``). Each name maps to a contiguous,
    writable view of its slice, so whole-store work (the optimizer,
    zeroing, finiteness checks) is one numpy call, and the store never
    grows, so a view never moves. ``leaves`` is a read-only map with one
    leaf Var per name whose ``value`` and ``grad`` are those views, and the
    only map the store keeps: every lookup by name and every forward reads
    the values through it, and every backward adds into ``flat_grads``. The
    store remembers the seed it was initialized from so checkpoints can
    reproduce it.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray], seed: int = 0):
        self.seed = int(seed)
        arrays = {name: np.asarray(arr, dtype=np.float64) for name, arr in arrays.items()}
        size = sum(arr.size for arr in arrays.values())
        self.flat_values, self.flat_grads = np.zeros(size), np.zeros(size)
        leaves = {}
        start = 0
        for name, arr in arrays.items():
            span = slice(start, start + arr.size)
            self.flat_values[span] = arr.reshape(-1)
            leaves[name] = Var(self.flat_values[span].reshape(arr.shape))
            leaves[name].grad = self.flat_grads[span].reshape(arr.shape)
            start = span.stop
        self.leaves: Mapping[str, Var] = types.MappingProxyType(leaves)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.leaves[name].value

    def grad(self, name: str) -> np.ndarray:
        return self.leaves[name].grad

    def names(self) -> list[str]:
        return list(self.leaves)

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return ((name, leaf.value) for name, leaf in self.leaves.items())

    def flat_slices(self) -> Iterator[tuple[str, slice]]:
        """Each name with the slice of ``flat_values`` its view covers."""
        start = 0
        for name, arr in self.items():
            yield name, slice(start, start + arr.size)
            start += arr.size

    def zero_grads(self) -> None:
        self.flat_grads[...] = 0.0

    def num_scalars(self) -> int:
        return int(self.flat_values.size)
