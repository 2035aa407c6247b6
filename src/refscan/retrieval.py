"""Nearest-token retrieval: one trajectory per semantic query.

For every query vector and every timestep the closest spatial token (by
Euclidean distance, lowest index on ties) is selected; the per-timestep
picks form that query's trajectory. All queries of one grid are resolved
from one distance tensor; ``nearest_token`` is the one-frame reference the
tests hold that tensor to. Selection is a hard argmin, so no
gradient flows into the queries; downstream gradients only pass through the
selected token values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InputError


@dataclass
class VisualTokenGrid:
    """T x S x d token array plus the source frame numbers."""

    tokens: np.ndarray
    frame_indices: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.float64)
        if self.tokens.ndim != 3:
            raise DimensionError(f"grid must be 3-D (frames, cells, dim), got {self.tokens.shape}")
        if self.num_frames < 1 or self.num_cells < 1:
            raise DimensionError(f"grid needs at least one frame and one cell, got {self.tokens.shape}")
        if not np.all(np.isfinite(self.tokens)):
            raise InputError("grid contains non-finite token entries")
        if not self.frame_indices:
            self.frame_indices = list(range(self.num_frames))

    @property
    def num_frames(self) -> int:
        return self.tokens.shape[0]

    @property
    def num_cells(self) -> int:
        return self.tokens.shape[1]

    @property
    def dim(self) -> int:
        return self.tokens.shape[2]

    @property
    def num_tokens(self) -> int:
        return self.num_frames * self.num_cells

    def frame(self, l: int) -> np.ndarray:
        return self.tokens[l]


@dataclass
class Trajectory:
    """Per-timestep retrieved tokens for one semantic query."""

    query_id: tuple[str, int]
    spatial_indices: np.ndarray  # (T,) int
    tokens: np.ndarray  # (T, d)

    @property
    def length(self) -> int:
        return int(self.spatial_indices.shape[0])

    def steps(self):
        """(timestep, spatial index, token) triples, timesteps 1-based."""
        for l in range(self.length):
            yield l + 1, int(self.spatial_indices[l]), self.tokens[l]


@dataclass
class TrajectorySet:
    hierarchy: str  # "keyword" | "scene-attribute"
    trajectories: list[Trajectory]

    def __len__(self) -> int:
        return len(self.trajectories)

    def indices_signature(self) -> tuple:
        """Hashable record of every selection; used to detect argmin flips."""
        return tuple(tuple(t.spatial_indices.tolist()) for t in self.trajectories)


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


def _project_queries(queries: np.ndarray, query_projection) -> np.ndarray:
    """Apply a callable or matrix projection to each query row once."""
    if query_projection is None:
        return queries
    if callable(query_projection):
        return np.array([query_projection(q) for q in queries], dtype=np.float64).reshape(
            queries.shape[0], -1
        )
    return (queries[:, None, :] @ np.asarray(query_projection, dtype=np.float64))[:, 0]


def _retrieve(queries: np.ndarray, grid: VisualTokenGrid) -> tuple[np.ndarray, np.ndarray]:
    """Nearest cell per (query, frame): indices (K, T) and tokens (K, T, d).

    One squared-distance tensor over queries x frames x cells; ``argmin``
    keeps the lowest cell index on ties, as ``nearest_token`` does.
    """
    if queries.shape[1] != grid.dim:
        raise DimensionError(f"query dim {queries.shape[1:]} does not match grid dim {grid.dim}")
    diffs = grid.tokens[None] - queries[:, None, None, :]
    d2 = np.einsum("ktsd,ktsd->kts", diffs, diffs)
    indices = d2.argmin(axis=2)
    return indices, grid.tokens[np.arange(grid.num_frames), indices]


def build_trajectory(
    query: np.ndarray,
    grid: VisualTokenGrid,
    query_id: tuple[str, int] = ("keyword", 0),
    query_projection=None,
) -> Trajectory:
    """The nearest cell of every frame, in temporal order, for one query.

    ``query_projection``, when given, is applied to the query once before any
    distance is computed (callable or matrix).
    """
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1:
        raise DimensionError(f"query must be a vector, got shape {q.shape}")
    indices, tokens = _retrieve(_project_queries(q[None, :], query_projection), grid)
    return Trajectory(query_id=query_id, spatial_indices=indices[0], tokens=tokens[0])


def build_trajectory_set(
    queries: np.ndarray,
    grid: VisualTokenGrid,
    hierarchy: str,
    query_projection=None,
) -> TrajectorySet:
    """One trajectory per query row, order preserved; zero rows -> empty set."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise DimensionError(f"queries must be 2-D, got shape {queries.shape}")
    if queries.shape[0] == 0:
        return TrajectorySet(hierarchy=hierarchy, trajectories=[])
    indices, tokens = _retrieve(_project_queries(queries, query_projection), grid)
    trajectories = [
        Trajectory(query_id=(hierarchy, k), spatial_indices=indices[k], tokens=tokens[k])
        for k in range(queries.shape[0])
    ]
    return TrajectorySet(hierarchy=hierarchy, trajectories=trajectories)
