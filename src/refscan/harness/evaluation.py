"""Evaluation orchestration: run the model over a dataset, report metrics."""

from __future__ import annotations

import contextlib
import json
import os
from collections.abc import Iterable

import numpy as np

from ..config import TrainConfig
from ..errors import InputError, MetricError, PipelineError
from ..fusion import PipelineSample, check_sample, forward
from ..metrics import EvalRecord, auroc, iou, mean_iou, multilabel_map
from ..numerics import ParamStore
from ..semantics import ReferenceEncoder


def predict_records(
    params: ParamStore,
    config: TrainConfig,
    samples: Iterable[PipelineSample],
    encoder: ReferenceEncoder,
) -> list[EvalRecord]:
    """One forward per sample, drawn from ``samples`` one at a time and kept
    only as its small ``EvalRecord``, so a streamed split is never held
    whole. Every forward reads the store's own leaves; evaluation never
    runs backward, so their gradients stay as they were.

    Each forward gets ``sample.without_targets()``, so it builds no loss
    unit, yet shares the keyword picks and pooled inputs the sample keeps:
    a sample evaluated twice retrieves its keywords once. The records take
    the targets from the sample as given. A sample whose predicted box or
    class scores are not finite raises ``PipelineError`` with the stage of
    the first unit of its forward whose output is not finite.
    """
    records = []
    for s in samples:
        check_sample(s, config)
        res = forward(s.without_targets(), params, config, encoder)
        out = res.output
        # box and scores are means of sigmoids: their sum is finite exactly when every
        # entry is, and a non-finite entry comes from a non-finite head output or earlier
        if not np.isfinite(out.bbox.sum() + out.class_probs.sum()):
            unit = res.first_nonfinite()
            error = InputError(f"sample {s.sample_id!r}: non-finite {unit.key!r} output")
            raise PipelineError(unit.stage, error)
        records.append(
            EvalRecord(
                sample_id=s.sample_id,
                gt_bbox=np.asarray(s.gt_bbox),
                pred_bbox=out.bbox,
                gt_labels=np.asarray(s.labels),
                pred_scores=out.class_probs,
            )
        )
    return records


def aggregate_report(records: list[EvalRecord]) -> dict:
    """Metric summary plus one row per sample; raises if metrics are undefined."""
    if not records:
        raise MetricError("evaluation requires at least one record")
    rows = [
        {
            "id": r.sample_id,
            "iou": iou(r.gt_bbox, r.pred_bbox),
            "pred_bbox": [float(v) for v in r.pred_bbox],
            "pred_scores": [float(v) for v in r.pred_scores],
        }
        for r in records
    ]
    return {
        "miou": mean_iou(records),
        "map": multilabel_map(records),
        "auroc": auroc(records),
        "num_samples": len(records),
        "samples": rows,
    }


def evaluate(
    params: ParamStore,
    config: TrainConfig,
    samples: Iterable[PipelineSample],
    encoder: ReferenceEncoder,
) -> dict:
    """The report of ``predict_records`` over any iterable of samples: a
    list, or ``FixtureDataset.iter_samples`` to read the split one chunk at
    a time."""
    return aggregate_report(predict_records(params, config, samples, encoder))


def write_report(path, report: dict) -> None:
    """Write the report as strict JSON: the bytes of ``json.dumps(report,
    sort_keys=True, allow_nan=False)`` and a newline, encoded one top-level
    field and one list entry at a time, so the whole text is never held. The
    text goes to a temporary file beside ``path``, which replaces ``path``
    once complete; a non-finite value raises ``ValueError`` and leaves a file
    at neither name."""
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("{")
            for i, key in enumerate(sorted(report)):
                fh.write(f"{', ' if i else ''}{encode(key)}: ")
                value = report[key]
                if isinstance(value, list):
                    fh.write("[")
                    for j, item in enumerate(value):
                        fh.write(f"{', ' if j else ''}{encode(item)}")
                    fh.write("]")
                else:
                    fh.write(encode(value))
            fh.write("}\n")
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
