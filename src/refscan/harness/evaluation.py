"""Evaluation orchestration: run the model over a dataset, report metrics."""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections.abc import Sequence

import numpy as np

from ..config import TrainConfig
from ..errors import InputError, MetricError, PipelineError
from ..fusion import PipelineSample, check_sample, forward
# mean_iou is not called here: it stays because the benchmark's tracer wraps evaluation.mean_iou
from ..metrics import EvalRecord, auroc, iou, mean_iou, multilabel_map  # noqa: F401
from ..numerics import fork
from ..numerics.params import ParamStore
from ..semantics import ReferenceEncoder
from . import formats
from .formats import FixtureDataset, record_targets


def _predict(s: PipelineSample, params: ParamStore, config: TrainConfig, encoder: ReferenceEncoder):
    """The checked sample's forward output, raised on if not finite."""
    check_sample(s, config)
    res = forward(s.without_targets(), params, config, encoder)
    out = res.output
    # box and scores are means of sigmoids: their sum is finite exactly when every
    # entry is, and a non-finite entry comes from a non-finite head output or earlier
    if not np.isfinite(out.bbox.sum() + out.class_probs.sum()):
        unit = res.first_nonfinite()
        error = InputError(f"sample {s.sample_id!r}: non-finite {unit.key!r} output")
        raise PipelineError(unit.stage, error)
    return out


def predict_records(
    params: ParamStore,
    config: TrainConfig,
    samples: Sequence[PipelineSample] | FixtureDataset,
    encoder: ReferenceEncoder,
) -> list[EvalRecord]:
    """One forward per sample, kept only as its small ``EvalRecord``, of a
    list or of a ``FixtureDataset``'s split, read a chunk at a time and
    embedded by ``encoder``: a streamed split is never held whole. Every
    forward reads the store's own leaves; evaluation never runs backward,
    so their gradients stay as they were.

    Each forward gets ``sample.without_targets()``, so it builds no loss
    unit, yet shares the keyword picks and pooled inputs the sample keeps:
    a sample evaluated twice in one process retrieves its keywords once.
    The records take the targets from the sample as given. A sample whose
    predicted box or class scores are not finite raises ``PipelineError``
    with the stage of the first unit of its forward whose output is not
    finite.

    Each chunk of ``CHUNK_RECORDS`` samples is one task of ``fork.deal``,
    which deals the chunks over the usable CPUs. Every process parses or
    slices every chunk, so it knows where each starts, but builds and
    forwards only its own, writing each sample's box and scores into its
    chunk's row of the table, and drops the chunk's samples before the
    next chunk is read. This process keeps every sample's targets from its
    own pass. So the records, and the first exception in sample order, are
    those of one process, which is all that runs on one CPU, beside another
    thread, or for a single chunk.
    """
    width, size = 4 + config.num_classes, formats.CHUNK_RECORDS
    if isinstance(samples, FixtureDataset):
        tasks, bound = functools.partial(samples.iter_chunks, encoder), samples.record_bound()
        target = functools.partial(record_targets, num_classes=samples.num_classes)
    else:
        bound = len(samples)

        def tasks():  # a list's chunks by position, as ``FixtureDataset.iter_chunks`` yields a split's
            for start in range(0, bound, size):
                part = samples[start:start + size]
                yield part, lambda part=part: part

        def target(s: PipelineSample) -> tuple:
            return s.sample_id, np.asarray(s.gt_bbox), np.asarray(s.labels)

    def run(chunk, row: np.ndarray) -> None:
        """Forward the chunk's samples into its row, a sample's box and scores at a time."""
        preds = row.reshape(size, width)
        for i, s in enumerate(chunk[1]()):
            out = _predict(s, params, config, encoder)
            preds[i, :4], preds[i, 4:] = out.bbox, out.class_probs

    targets = []
    table = fork.deal(tasks, run, -(-bound // size), size * width, lambda chunk: targets.extend(map(target, chunk[0])))
    preds = table.reshape(-1, width)[: len(targets)].copy()
    return [EvalRecord(sample_id, box, p[:4], labels, p[4:]) for (sample_id, box, labels), p in zip(targets, preds)]


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
        "miou": float(np.mean([row["iou"] for row in rows])),  # mean_iou's value, its IoUs computed once
        "map": multilabel_map(records),
        "auroc": auroc(records),
        "num_samples": len(records),
        "samples": rows,
    }


def evaluate(
    params: ParamStore,
    config: TrainConfig,
    samples: Sequence[PipelineSample] | FixtureDataset,
    encoder: ReferenceEncoder,
) -> dict:
    """The report of ``predict_records`` over a list of samples or a
    ``FixtureDataset``, whose split is read one chunk at a time. A list or a
    dataset of two chunks or more is dealt out over the usable CPUs; the
    report's bytes are those of one process."""
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
