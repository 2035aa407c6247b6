from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refscan.errors import DimensionError, InputError
from refscan.retrieval import VisualTokenGrid, build_trajectory_set, nearest_token


def brute_force_nearest(query, frame_tokens):
    """Independent oracle: explicit loop over cells, strict < keeps first min."""
    best_idx, best_d = 0, float("inf")
    for i, tok in enumerate(frame_tokens):
        d = float(np.sqrt(np.sum((np.asarray(query) - np.asarray(tok)) ** 2)))
        if d < best_d:
            best_idx, best_d = i, d
    return best_idx


class TestNearestToken:
    def test_exact_match(self):
        idx, tok = nearest_token([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        assert idx == 0
        assert np.linalg.norm(np.asarray([1.0, 0.0]) - tok) == 0.0

    def test_tie_break_lowest_index(self):
        idx, _ = nearest_token([0.0, 0.0], [[1.0, 0.0], [1.0, 0.0]])
        assert idx == 0

    def test_hand_distances(self):
        # d^2 to [1,0] is 0.8, to [0,1] is 0.4
        idx, _ = nearest_token([0.6, 0.8], [[1.0, 0.0], [0.0, 1.0]])
        assert idx == 1

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            nearest_token([1.0, 0.0, 0.0], [[1.0, 0.0]])

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        cells = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 6))
        query = rng.normal(size=dim)
        tokens = rng.normal(size=(cells, dim))
        idx, _ = nearest_token(query, tokens)
        assert idx == brute_force_nearest(query, tokens)

    @given(st.integers(0, 10_000), st.floats(0.1, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_positive_scaling(self, seed, scale):
        rng = np.random.default_rng(seed)
        query = rng.normal(size=4)
        tokens = rng.normal(size=(6, 4))
        idx_base, _ = nearest_token(query, tokens)
        idx_scaled, _ = nearest_token(query * scale, tokens * scale)
        assert idx_base == idx_scaled


def picks(query, grid):
    """(T,) cell indices of one query's trajectory."""
    return build_trajectory_set(np.asarray(query)[None, :], grid, "keyword").indices[0]


class TestBuildTrajectory:
    def test_single_frame(self):
        grid = VisualTokenGrid(np.arange(8.0).reshape(1, 4, 2))
        cells = picks([6.1, 7.1], grid)
        assert cells.tolist() == [3]
        np.testing.assert_array_equal(grid.tokens[np.arange(1), cells][0], [6.0, 7.0])

    def test_planted_exact_matches(self):
        frames, cells, dim = 5, 3, 4
        rng = np.random.default_rng(1)
        query = rng.normal(size=dim)
        grid_arr = rng.normal(size=(frames, cells, dim)) * 10.0
        for l in range(frames):
            grid_arr[l, l % cells] = query
        assert picks(query, VisualTokenGrid(grid_arr)).tolist() == [l % cells for l in range(frames)]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        grid_arr = rng.normal(size=(3, 4, 5))
        query = rng.normal(size=5)
        cells = picks(query, VisualTokenGrid(grid_arr))
        for l in range(3):
            assert cells[l] == brute_force_nearest(query, grid_arr[l])


class TestBuildTrajectorySet:
    def test_empty_queries(self):
        grid = VisualTokenGrid(np.zeros((2, 2, 3)))
        ts = build_trajectory_set(np.zeros((0, 3)), grid, "keyword")
        assert len(ts) == 0
        assert ts.indices.shape == (0, 2) and ts.indices.dtype == np.intp
        assert ts.indices_signature() == ()

    def test_duplicate_queries_duplicate_trajectories(self):
        rng = np.random.default_rng(3)
        grid = VisualTokenGrid(rng.normal(size=(3, 4, 5)))
        q = rng.normal(size=5)
        ts = build_trajectory_set(np.stack([q, q]), grid, "keyword")
        np.testing.assert_array_equal(ts.indices[0], ts.indices[1])
        frames = np.arange(grid.num_frames)
        np.testing.assert_array_equal(grid.tokens[frames, ts.indices[0]], grid.tokens[frames, ts.indices[1]])

    def test_composes_from_single_builds(self):
        rng = np.random.default_rng(4)
        grid = VisualTokenGrid(rng.normal(size=(3, 4, 5)))
        queries = rng.normal(size=(3, 5))
        ts = build_trajectory_set(queries, grid, "scene-attribute")
        for k in range(3):
            np.testing.assert_array_equal(ts.indices[k], picks(queries[k], grid))
        assert ts.hierarchy == "scene-attribute"
        assert ts.indices_signature() == tuple(tuple(row) for row in ts.indices.tolist())

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_fuzz_indices_in_range_and_full_length(self, seed):
        rng = np.random.default_rng(seed)
        frames = int(rng.integers(1, 6))
        cells = int(rng.integers(1, 7))
        dim = int(rng.integers(2, 5))
        grid = VisualTokenGrid(rng.normal(size=(frames, cells, dim)))
        ts = build_trajectory_set(rng.normal(size=(2, dim)), grid, "keyword")
        assert ts.indices.shape == (2, frames)
        assert np.all(ts.indices >= 0)
        assert np.all(ts.indices < cells)


def test_grid_validation():
    with pytest.raises(DimensionError):
        VisualTokenGrid(np.zeros((2, 3)))
    with pytest.raises(InputError):
        VisualTokenGrid(np.full((1, 1, 2), np.nan))
