from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refscan.errors import MetricError
from refscan.metrics import (
    EvalRecord,
    _average_ranks,
    auroc,
    auroc_oracle,
    iou,
    mean_iou,
    multilabel_map,
    multilabel_map_oracle,
)

UNIT = np.array([0.0, 0.0, 1.0, 1.0])


def rec(labels, scores, gt_bbox=UNIT, pred_bbox=UNIT, sid="s"):
    return EvalRecord(sid, np.asarray(gt_bbox), np.asarray(pred_bbox), np.asarray(labels, float), np.asarray(scores, float))


def records_from(labels, scores):
    labels = np.atleast_2d(labels)
    scores = np.atleast_2d(scores)
    return [rec(labels[i], scores[i], sid=f"s{i}") for i in range(labels.shape[0])]


class TestIou:
    def test_identical_unit_boxes(self):
        assert iou(UNIT, UNIT) == 1.0

    def test_disjoint(self):
        assert iou([0.0, 0.0, 0.2, 0.2], [0.5, 0.5, 0.9, 0.9]) == 0.0

    def test_hand_area_arithmetic(self):
        # inter 0.1*0.2 = 0.02, union 0.04 + 0.04 - 0.02 = 0.06
        assert iou([0.0, 0.0, 0.2, 0.2], [0.1, 0.0, 0.3, 0.2]) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_out_of_range_coordinates_clamped(self):
        assert iou([0.0, 0.0, 1.5, 1.0], UNIT) == 1.0

    def test_degenerate_prediction_scores_zero(self):
        assert iou(UNIT, [0.6, 0.2, 0.4, 0.8]) == 0.0

    def test_both_degenerate_zero(self):
        assert iou([0.5, 0.5, 0.5, 0.5], [0.3, 0.3, 0.3, 0.3]) == 0.0

    @given(st.lists(st.floats(0, 1), min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, coords):
        a, b = coords[:4], coords[4:]
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)

    def test_equals_one_iff_same_positive_box(self):
        box = [0.1, 0.1, 0.4, 0.5]
        assert iou(box, box) == 1.0
        assert iou(box, [0.1, 0.1, 0.4, 0.500001]) < 1.0


class TestMeanIou:
    def test_all_perfect(self):
        assert mean_iou([rec([1], [1], pred_bbox=UNIT)] * 3) == 1.0

    def test_all_disjoint(self):
        r = rec([1], [1], gt_bbox=[0.0, 0.0, 0.1, 0.1], pred_bbox=[0.5, 0.5, 0.9, 0.9])
        assert mean_iou([r, r]) == 0.0

    def test_mixed_mean(self):
        perfect = rec([1], [1])
        third = rec([1], [1], gt_bbox=[0.0, 0.0, 0.2, 0.2], pred_bbox=[0.1, 0.0, 0.3, 0.2])
        assert mean_iou([perfect, third]) == pytest.approx((1.0 + 1.0 / 3.0) / 2.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            mean_iou([])


class TestMultilabelMap:
    def test_perfect_ranking(self):
        records = records_from([[1], [1], [0], [0]], [[0.9], [0.8], [0.2], [0.1]])
        assert multilabel_map(records) == 1.0

    def test_worked_example_half(self):
        records = records_from([[1], [0]], [[0.2], [0.9]])
        assert multilabel_map(records) == pytest.approx(0.5)

    def test_all_positive_class(self):
        records = records_from([[1], [1]], [[0.1], [0.9]])
        assert multilabel_map(records) == 1.0

    def test_class_without_positives_skipped(self):
        records = records_from([[1, 0], [0, 0]], [[0.9, 0.5], [0.1, 0.4]])
        assert multilabel_map(records) == 1.0

    def test_no_positives_anywhere_rejected(self):
        with pytest.raises(MetricError):
            multilabel_map(records_from([[0], [0]], [[0.3], [0.4]]))

    def test_tie_broken_by_sample_order(self):
        # equal scores: sample 0 (negative) precedes sample 1 (positive)
        records = records_from([[0], [1]], [[0.5], [0.5]])
        assert multilabel_map(records) == pytest.approx(0.5)


class TestAuroc:
    def test_perfect_separation(self):
        records = records_from([[1], [1], [0]], [[0.9], [0.8], [0.1]])
        assert auroc(records) == 1.0

    def test_all_scores_equal_half(self):
        records = records_from([[1], [0], [1]], [[0.4], [0.4], [0.4]])
        assert auroc(records) == pytest.approx(0.5)

    def test_worked_example_three_quarters(self):
        records = records_from([[1], [0], [1], [0]], [[0.9], [0.8], [0.7], [0.6]])
        assert auroc(records) == pytest.approx(0.75)

    def test_single_class_without_negatives_rejected(self):
        with pytest.raises(MetricError):
            auroc(records_from([[1], [1]], [[0.9], [0.8]]))


class TestAverageRanks:
    def test_tie_groups_signed_zeros_and_nans(self):
        scores = np.array([0.5, np.nan, -0.0, 0.5, np.nan, 0.0, -1.0, 0.5])
        # ascending: -1.0 | -0.0 0.0 | 0.5 0.5 0.5 | nan | nan, NaNs in sample order
        expected = np.array([5.0, 7.0, 2.5, 5.0, 8.0, 2.5, 1.0, 5.0])
        assert _average_ranks(scores).tobytes() == expected.tobytes()

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_quantized_scores_match_pairwise_counts(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        scores = rng.integers(-2, 3, size=n) / 2.0 * rng.choice([1.0, -1.0], size=n)
        scores[rng.random(n) < 0.2] = np.nan
        finite = ~np.isnan(scores)
        expected = np.empty(n)
        for i in range(n):
            if finite[i]:
                below, tied = np.sum(scores < scores[i]), np.sum(scores == scores[i])
                expected[i] = below + (tied + 1) / 2.0
            else:
                expected[i] = finite.sum() + np.sum(~finite[: i + 1])
        assert _average_ranks(scores).tobytes() == expected.tobytes()

    def test_signed_zeros_tie_in_auroc(self):
        assert auroc(records_from([[1], [0]], [[0.0], [-0.0]])) == 0.5


class TestOracleEquivalence:
    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_map_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        labels = (rng.random((n, k)) < 0.5).astype(float)
        if labels.sum() == 0:
            labels[0, 0] = 1.0
        scores = rng.integers(0, 4, size=(n, k)) / 3.0
        records = records_from(labels, scores)
        assert multilabel_map(records) == pytest.approx(multilabel_map_oracle(records), abs=1e-9)

    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_auroc_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        labels = (rng.random((n, k)) < 0.5).astype(float)
        labels[0, 0], labels[1, 0] = 1.0, 0.0
        scores = rng.integers(0, 4, size=(n, k)) / 3.0
        records = records_from(labels, scores)
        assert auroc(records) == pytest.approx(auroc_oracle(records), abs=1e-9)

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_rank_metrics_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        labels = (rng.random((n, 2)) < 0.5).astype(float)
        labels[0, 0], labels[1, 0] = 1.0, 0.0
        scores = rng.random((n, 2))
        records = records_from(labels, scores)
        transformed = records_from(labels, np.exp(3.0 * scores) + 5.0)
        assert multilabel_map(records) == multilabel_map(transformed)
        assert auroc(records) == auroc(transformed)
