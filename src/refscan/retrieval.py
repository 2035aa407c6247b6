"""Nearest-token retrieval: one trajectory per semantic query.

For every query vector and every timestep the closest spatial token (by
Euclidean distance, lowest index on ties) is selected; the per-timestep
picks form that query's trajectory, kept as a row of cell indices. All
queries of one grid are resolved from one distance tensor;
``nearest_token`` is the one-frame reference the tests hold that tensor
to. Selection is a hard argmin, so no gradient flows into the queries;
downstream gradients only pass through the tokens gathered at the picks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError


@dataclass
class VisualTokenGrid:
    """T x S x d token array: frames x spatial cells x feature dim."""

    tokens: np.ndarray

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.float64)
        if self.tokens.ndim != 3:
            raise DimensionError(f"grid must be 3-D (frames, cells, dim), got {self.tokens.shape}")
        if self.num_frames < 1 or self.num_cells < 1:
            raise DimensionError(f"grid needs at least one frame and one cell, got {self.tokens.shape}")
        if not np.all(np.isfinite(self.tokens)):
            raise InputError("grid contains non-finite token entries")

    @property
    def num_frames(self) -> int:
        return self.tokens.shape[0]

    @property
    def num_cells(self) -> int:
        return self.tokens.shape[1]

    @property
    def dim(self) -> int:
        return self.tokens.shape[2]


@dataclass
class TrajectorySet:
    """The picks of one hierarchy's queries: ``indices[k, l]`` is query k's
    nearest cell in frame l."""

    indices: np.ndarray  # (K, T) intp

    def __len__(self) -> int:
        return self.indices.shape[0]

    def indices_signature(self) -> tuple:
        """Hashable record of every selection; used to detect argmin flips."""
        return tuple(map(tuple, self.indices.tolist()))


def nearest_token(query: np.ndarray, frame_tokens: np.ndarray) -> tuple[int, np.ndarray]:
    """Argmin of Euclidean distance over spatial cells; lowest index wins ties."""
    query = np.asarray(query, dtype=np.float64)
    frame_tokens = np.asarray(frame_tokens, dtype=np.float64)
    if frame_tokens.ndim != 2 or query.shape != (frame_tokens.shape[1],):
        raise DimensionError(
            f"nearest_token: query {query.shape} vs frame tokens {frame_tokens.shape}"
        )
    diffs = frame_tokens - query
    d2 = np.einsum("ij,ij->i", diffs, diffs)
    idx = int(np.argmin(d2))  # np.argmin returns the first minimum
    return idx, frame_tokens[idx].copy()


def _retrieve(queries: np.ndarray, grid: VisualTokenGrid) -> np.ndarray:
    """Nearest cell per (query, frame), (K, T).

    One squared-distance tensor over queries x frames x cells; ``argmin``
    keeps the lowest cell index on ties, as ``nearest_token`` does.
    """
    if queries.shape[1] != grid.dim:
        raise DimensionError(f"query dim {queries.shape[1:]} does not match grid dim {grid.dim}")
    diffs = grid.tokens[None] - queries[:, None, None, :]
    d2 = np.einsum("ktsd,ktsd->kts", diffs, diffs)
    return d2.argmin(axis=2)


def build_trajectory_set(queries: np.ndarray, grid: VisualTokenGrid, hierarchy: str) -> TrajectorySet:
    """One trajectory per query row, order preserved; zero rows -> empty set.
    Only the benchmark's tracer reads ``hierarchy``, to tell picks apart."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise DimensionError(f"queries must be 2-D, got shape {queries.shape}")
    if queries.shape[0] == 0:
        return TrajectorySet(np.zeros((0, grid.num_frames), dtype=np.intp))
    return TrajectorySet(_retrieve(queries, grid))
