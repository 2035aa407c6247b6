"""Evaluation metrics: keyframe-box mean IoU, multi-label mAP, macro AUROC.

Every ranking metric ships with a brute-force oracle twin (pairwise or
enumerative, no sorting tricks) that the optimized path must match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MetricError


@dataclass
class EvalRecord:
    sample_id: str
    gt_bbox: np.ndarray  # (4,), x1<x2 and y1<y2
    pred_bbox: np.ndarray  # (4,), raw model output, may be degenerate
    gt_labels: np.ndarray  # multi-hot (num_classes,)
    pred_scores: np.ndarray  # (num_classes,)


def _sanitize_box(box) -> np.ndarray:
    box = np.asarray(box, dtype=np.float64)
    if box.shape != (4,):
        raise DimensionError(f"box must have 4 coordinates, got shape {box.shape}")
    return np.clip(box, 0.0, 1.0)


def _area(box: np.ndarray) -> float:
    return max(0.0, box[2] - box[0]) * max(0.0, box[3] - box[1])


def iou(box_a, box_b) -> float:
    """Intersection over union of two sanitized boxes; 0 when union is empty.

    Inverted boxes (x1 >= x2 or y1 >= y2) have zero area and zero overlap.
    """
    a = _sanitize_box(box_a)
    b = _sanitize_box(box_b)
    iw = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    ih = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = iw * ih if (_area(a) > 0.0 and _area(b) > 0.0) else 0.0
    union = _area(a) + _area(b) - inter
    if union <= 0.0:
        return 0.0
    return float(inter / union)


def mean_iou(records: list[EvalRecord]) -> float:
    if not records:
        raise MetricError("mean_iou: no evaluation records")
    return float(np.mean([iou(r.gt_bbox, r.pred_bbox) for r in records]))


def _label_matrix(records: list[EvalRecord]) -> tuple[np.ndarray, np.ndarray]:
    if not records:
        raise MetricError("no evaluation records")
    labels = np.stack([np.asarray(r.gt_labels, dtype=np.float64) for r in records])
    scores = np.stack([np.asarray(r.pred_scores, dtype=np.float64) for r in records])
    if labels.shape != scores.shape:
        raise DimensionError(f"labels {labels.shape} vs scores {scores.shape}")
    return labels, scores


def _average_precision(labels: np.ndarray, scores: np.ndarray) -> float:
    # stable sort on -score keeps ties in original sample order
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order]
    cum_pos = np.cumsum(ranked)
    precision_at = cum_pos / np.arange(1, labels.size + 1)
    return float(precision_at[ranked > 0].mean())


def multilabel_map(records: list[EvalRecord]) -> float:
    """Macro mean over classes (with at least one positive) of average precision."""
    labels, scores = _label_matrix(records)
    aps = [
        _average_precision(labels[:, c], scores[:, c])
        for c in range(labels.shape[1])
        if labels[:, c].sum() > 0
    ]
    if not aps:
        raise MetricError("multilabel_map: no class has a positive sample")
    return float(np.mean(aps))


def multilabel_map_oracle(records: list[EvalRecord]) -> float:
    """Pairwise-counting AP, no sorting: rank_i = 1 + #{j beats i}."""
    labels, scores = _label_matrix(records)
    n, n_classes = labels.shape
    aps = []
    for c in range(n_classes):
        positives = [i for i in range(n) if labels[i, c] > 0]
        if not positives:
            continue
        def rank(i):
            beats = 0
            for j in range(n):
                if scores[j, c] > scores[i, c] or (scores[j, c] == scores[i, c] and j < i):
                    beats += 1
            return beats + 1
        ranks = {i: rank(i) for i in positives}
        precisions = []
        for i in positives:
            inside = sum(1 for j in positives if ranks[j] <= ranks[i])
            precisions.append(inside / ranks[i])
        aps.append(sum(precisions) / len(precisions))
    if not aps:
        raise MetricError("multilabel_map: no class has a positive sample")
    return float(sum(aps) / len(aps))


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks ascending by score, ties get the mean of their ranks.

    A tie group spanning sorted positions ``i`` to ``j - 1`` gets
    ``(i + j + 1) / 2``. ``-0.0`` ties ``0.0``; a NaN ties nothing, and NaNs
    rank last in sample order (the sort is stable, which ``np.unique``'s is not).
    """
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    bounds = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1], [True])))
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat((bounds[:-1] + bounds[1:] + 1) / 2.0, np.diff(bounds))
    return ranks


def auroc(records: list[EvalRecord]) -> float:
    """Macro rank-based (Mann-Whitney) AUC with tie-halving.

    Classes lacking either a positive or a negative sample are skipped; if no
    class qualifies the metric is undefined.
    """
    labels, scores = _label_matrix(records)
    aucs = []
    for c in range(labels.shape[1]):
        pos = labels[:, c] > 0
        n_pos = int(pos.sum())
        n_neg = int(labels.shape[0] - n_pos)
        if n_pos == 0 or n_neg == 0:
            continue
        ranks = _average_ranks(scores[:, c])
        auc = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        aucs.append(auc)
    if not aucs:
        raise MetricError("auroc: no class has both a positive and a negative sample")
    return float(np.mean(aucs))


def auroc_oracle(records: list[EvalRecord]) -> float:
    """Exhaustive pairwise concordance: 1 per win, 0.5 per tie."""
    labels, scores = _label_matrix(records)
    n, n_classes = labels.shape
    aucs = []
    for c in range(n_classes):
        positives = [i for i in range(n) if labels[i, c] > 0]
        negatives = [i for i in range(n) if labels[i, c] <= 0]
        if not positives or not negatives:
            continue
        total = 0.0
        for p in positives:
            for q in negatives:
                if scores[p, c] > scores[q, c]:
                    total += 1.0
                elif scores[p, c] == scores[q, c]:
                    total += 0.5
        aucs.append(total / (len(positives) * len(negatives)))
    if not aucs:
        raise MetricError("auroc: no class has both a positive and a negative sample")
    return float(sum(aucs) / len(aucs))
