"""Evaluation orchestration: run the model over a dataset, report metrics."""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
from collections.abc import Iterable, Sequence

import numpy as np

from ..config import TrainConfig
from ..errors import InputError, MetricError, PipelineError
from ..fusion import PipelineSample, check_sample, forward
# mean_iou is not called here: it stays because the benchmark's tracer wraps evaluation.mean_iou
from ..metrics import EvalRecord, auroc, iou, mean_iou, multilabel_map  # noqa: F401
from ..numerics import ParamStore, fork
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


def _list_chunks(samples: Sequence[PipelineSample]):
    """``FixtureDataset.iter_chunks`` for a list: its samples by position."""
    size = formats.CHUNK_RECORDS
    for start in range(0, len(samples), size):
        part = samples[start:start + size]
        yield part, lambda part=part: part


def _sample_targets(s: PipelineSample) -> tuple:
    return s.sample_id, np.asarray(s.gt_bbox), np.asarray(s.labels)


def _fill(chunks, target, mine, rows: np.ndarray, done: np.ndarray, params, config, encoder) -> list[tuple]:
    """Forward, sample by sample, each chunk ``mine`` picks by its index,
    writing each sample's box and class scores into its row of ``rows``,
    then the chunk's flag in ``done``. Returns the ``target`` of every item
    of every chunk, in order."""
    targets = []
    for c, (part, build) in enumerate(chunks):
        if mine(c):
            for i, s in enumerate(build(), start=len(targets)):
                out = _predict(s, params, config, encoder)
                rows[i, :4], rows[i, 4:] = out.bbox, out.class_probs
            done[c] = 1
        targets += map(target, part)
    return targets


def _dealt(params, config, encoder, chunks, target, bound: int, workers: int) -> list[EvalRecord]:
    """``predict_records`` over ``workers`` processes: ``chunks()`` starts a
    pass over at most ``bound`` samples, and ``target`` maps an item of a
    chunk to its sample's id, box and labels."""
    width, count = 4 + config.num_classes, -(-bound // formats.CHUNK_RECORDS)

    def views(table) -> tuple[np.ndarray, np.ndarray]:  # a row of floats per sample, then a byte per chunk
        rows = np.frombuffer(table, np.float64, bound * width).reshape(bound, width)
        return rows, np.frombuffer(table, np.uint8, count, offset=rows.nbytes)

    here = chunks()
    first = next(here, None)
    if first is None:  # blank lines only
        return []
    # this process builds its first chunk before the fork, so its first sample
    # waits on no fork; each worker starts a pass of its own and never reads
    # this pass's open file, whose offset it shares. The pass pops the built
    # chunk, so nothing holds it once its samples are done.
    built = [first[1]()]
    here = itertools.chain([(first[0], built.pop)], here)
    passed = []  # this process's targets, once its own pass is through

    def share(table, k: int, workers: int) -> None:
        try:
            own = here if k == 0 else chunks()
            passed.append(_fill(own, target, lambda c: c % workers == k, *views(table), params, config, encoder))
        except Exception:  # its chunk stays unflagged: the pass below evaluates it again and raises there
            pass

    rows, done = views(fork.run_shares(share, workers, bound * width * 8 + count))
    targets = passed[0] if passed else None
    if targets is None or not done[: -(-len(targets) // formats.CHUNK_RECORDS)].all():
        targets = _fill(chunks(), target, lambda c: not done[c], rows, done, params, config, encoder)
    preds = rows[: len(targets)].copy()
    return [EvalRecord(sample_id, box, p[:4], labels, p[4:]) for (sample_id, box, labels), p in zip(targets, preds)]


def predict_records(
    params: ParamStore,
    config: TrainConfig,
    samples: Iterable[PipelineSample] | FixtureDataset,
    encoder: ReferenceEncoder,
) -> list[EvalRecord]:
    """One forward per sample, kept only as its small ``EvalRecord``, of a
    list, of a ``FixtureDataset``'s split (read a chunk at a time, embedded
    by ``encoder``) or of any other iterable, drawn one sample at a time: a
    streamed split is never held whole. Every forward reads the store's own
    leaves; evaluation never runs backward, so their gradients stay as they
    were.

    Each forward gets ``sample.without_targets()``, so it builds no loss
    unit, yet shares the keyword picks and pooled inputs the sample keeps:
    a sample evaluated twice in one process retrieves its keywords once.
    The records take the targets from the sample as given. A sample whose
    predicted box or class scores are not finite raises ``PipelineError``
    with the stage of the first unit of its forward whose output is not
    finite.

    A list or a dataset of two chunks of ``CHUNK_RECORDS`` samples or more
    is dealt out: chunk c goes to process c mod W, of one per usable CPU
    (``fork.run_shares``), this process building its first chunk before
    the fork. Every process parses or slices every chunk, so it knows
    where each starts, but builds and forwards only its own,
    writing each sample's box and scores into a table it shares with this
    process, then the chunk's flag. This process keeps every sample's
    targets from its own pass, and once the workers are reaped it evaluates
    itself, in order, each chunk no process finished (a share raised, or a
    worker died). So the records, and the first exception in sample order,
    are those of one process, which is all that runs on one CPU, beside
    another thread, or for a single chunk.
    """
    if isinstance(samples, FixtureDataset):
        chunks, bound = functools.partial(samples.iter_chunks, encoder), samples.record_bound()
        target = functools.partial(record_targets, num_classes=samples.num_classes)
        samples = samples.iter_samples(encoder)
    elif isinstance(samples, Sequence):
        chunks, target, bound = functools.partial(_list_chunks, samples), _sample_targets, len(samples)
    else:
        bound = 0
    workers = fork.worker_count(-(-bound // formats.CHUNK_RECORDS))
    if workers > 1:
        return _dealt(params, config, encoder, chunks, target, bound, workers)
    records = []
    for s in samples:
        out = _predict(s, params, config, encoder)
        sample_id, gt_bbox, gt_labels = _sample_targets(s)
        records.append(EvalRecord(sample_id, gt_bbox, out.bbox, gt_labels, out.class_probs))
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
        "miou": float(np.mean([row["iou"] for row in rows])),  # mean_iou's value, its IoUs computed once
        "map": multilabel_map(records),
        "auroc": auroc(records),
        "num_samples": len(records),
        "samples": rows,
    }


def evaluate(
    params: ParamStore,
    config: TrainConfig,
    samples: Iterable[PipelineSample] | FixtureDataset,
    encoder: ReferenceEncoder,
) -> dict:
    """The report of ``predict_records`` over a list of samples, a
    ``FixtureDataset``, whose split is read one chunk at a time, or any
    other iterable of samples. A list or a dataset of two chunks or more is
    dealt out over the usable CPUs; the report's bytes are those of one
    process."""
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
