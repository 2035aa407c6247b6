"""On-disk dataset formats: RTEN tensor files and JSONL annotations.

RTEN layout: magic ``RTEN``, then little-endian u32 version, u32 rank, one
u32 per dim, then the float64 payload row-major. Annotations are UTF-8
JSON-lines, parsed one line at a time: each record is validated as its line
is read, and the file is rejected at the first violation with its line
number. A dataset's records are parsed, and their tensors read, one chunk
of ``CHUNK_RECORDS`` records at a time, so a pass over a split holds one
chunk of records and grids (and the last grid of the chunk before), not
the split, and its first sample waits on one chunk, not on the whole
annotation file. The chunk size trades that memory against the share of
samples that wait on a chunk's parse and reads, one per chunk.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import struct
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .. import fusion
from ..errors import DimensionError, InputError, ParseError
from ..retrieval import VisualTokenGrid
from ..semantics import Detection, ReferenceEncoder, SyntheticEncoder

RTEN_MAGIC = b"RTEN"
RTEN_VERSION = 1

META_NAME = "meta.json"
FIXTURE_FORMAT_VERSION = 1  # meta.json's format_version
ANNOTATIONS_NAME = "annotations.jsonl"
FEATURES_DIR = "features"
# Records that are parsed, whose tensors are read, and whose references are
# embedded, together. Memory holds one chunk of records and grids, and the
# first sample of each chunk waits on the chunk's parse and reads. On a
# 1,024-record split (d=32, 8 frames, 4x4 grid) the chunk size alone set
# `refscan eval`'s peak RSS at 48.4, 46.0, 45.0 and 44.4 MB for 128, 64, 32
# and 16 records; at 32, 3.1% of the samples wait on reads (0.8% at 128). At
# d=768 on a 14x14 grid of 8 frames one grid is 9.6 MB, so a 32-record chunk
# holds 0.3 GB where 128 held 1.2 GB. Parsing per chunk too, on that split
# and a 2-vCPU host, cut `refscan eval`'s time from `cli.main` to the first
# forward from 66-73 to 18-25 ms and its records from 1.91 to 0.05 MB
# (tracemalloc); started from a shell, its peak RSS fell from 44.3 to 42.2 MB.
CHUNK_RECORDS = 32


def write_tensor(path, array: np.ndarray) -> None:
    array = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    header = RTEN_MAGIC + struct.pack("<II", RTEN_VERSION, array.ndim)
    header += struct.pack(f"<{array.ndim}I", *array.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(array.astype("<f8").tobytes())


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != RTEN_MAGIC:
        raise ParseError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 12:
        raise ParseError(f"{path}: truncated header, {len(blob)} of 12 bytes", field="header")
    version, rank = struct.unpack_from("<II", blob, 4)
    if version != RTEN_VERSION:
        raise ParseError(f"{path}: unsupported tensor version {version}")
    offset = 12 + 4 * rank
    if len(blob) < offset:
        raise ParseError(
            f"{path}: truncated dims block, rank {rank} needs {offset} bytes, file has {len(blob)}",
            field="dims",
        )
    dims = struct.unpack_from(f"<{rank}I", blob, 12)
    count = math.prod(dims)  # exact, so huge dims fail the length check instead of wrapping
    expected = offset + 8 * count
    if len(blob) != expected:
        raise ParseError(f"{path}: payload length {len(blob)} != expected {expected}")
    return np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(dims).copy()


def read_json_object(path) -> dict:
    """A JSON object from ``path``; anything else is a ``ParseError`` naming the file."""
    blob = Path(path).read_bytes()
    try:
        data = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not a UTF-8 JSON document ({exc})") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: must hold a JSON object")
    return data


@dataclass(slots=True)
class SampleRecord:
    video_id: str
    num_frames: int
    keyframe_index: int
    reference: str
    gt_bbox: tuple[float, float, float, float]
    action_labels: list[int]
    features_ref: str
    detections: list[Detection] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


_REQUIRED_FIELDS = tuple(f.name for f in fields(SampleRecord))


def _int_field(obj: dict, name: str, fail) -> int:
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, int):
        fail(f"{name} must be an integer, got {value!r}", name)
    return value


def _parse_record(
    obj, line_no: int, path: Path, root: str, num_classes: int | None
) -> SampleRecord:
    """One annotation line; ``root`` is the annotation file's resolved
    directory. Every error names the file, the line and the field."""

    def fail(message: str, field: str | None = None):
        raise ParseError(f"{path}: {message}", line=line_no, field=field)

    if not isinstance(obj, dict):
        fail("a record must be a JSON object")
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            fail("missing field", name)
    for name in ("video_id", "reference", "features_ref"):
        if not isinstance(obj[name], str):
            fail(f"{name} must be a string, got {obj[name]!r}", name)
    bbox = obj["gt_bbox"]
    if (
        not isinstance(bbox, list)
        or len(bbox) != 4
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in bbox)
    ):
        fail("gt_bbox must be four numbers", "gt_bbox")
    x1, y1, x2, y2 = (float(v) for v in bbox)
    if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
        fail(f"gt_bbox {bbox} must satisfy 0<=x1<x2<=1 and 0<=y1<y2<=1", "gt_bbox")
    num_frames = _int_field(obj, "num_frames", fail)
    keyframe = _int_field(obj, "keyframe_index", fail)
    if not (0 <= keyframe < num_frames):
        fail(f"keyframe_index {keyframe} outside [0, {num_frames})", "keyframe_index")
    labels = obj["action_labels"]
    if not isinstance(labels, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in labels
    ):
        fail("action_labels must be non-negative ints", "action_labels")
    if num_classes is not None and any(v >= num_classes for v in labels):
        fail(f"label out of range for {num_classes} classes", "action_labels")
    if not obj["reference"].strip():
        fail("reference text is empty", "reference")
    if not isinstance(obj["detections"], list):
        fail("detections must be a list", "detections")
    detections = []
    for k, det in enumerate(obj["detections"]):
        try:
            detections.append(
                Detection(
                    bbox=tuple(float(v) for v in det["bbox"]),
                    category=str(det["category"]),
                    confidence=float(det["confidence"]),
                ).validate()
            )
        except KeyError as exc:
            fail(f"detection {k}: missing key {exc}", "detections")
        except Exception as exc:
            fail(f"detection {k}: {exc}", "detections")
    features_ref = obj["features_ref"]
    # resolved, so that no absolute path, ".." or symlink leads out of the root
    target = os.path.realpath(os.path.join(root, features_ref))
    if not target.startswith(os.path.join(root, "")):
        fail(f"features file {features_ref!r} lies outside the dataset root {root}", "features_ref")
    if not os.path.exists(target):
        fail(f"features file {features_ref!r} not found under {root}", "features_ref")
    return SampleRecord(
        video_id=obj["video_id"],
        num_frames=num_frames,
        keyframe_index=keyframe,
        reference=obj["reference"],
        gt_bbox=(x1, y1, x2, y2),
        action_labels=list(labels),
        features_ref=features_ref,
        detections=detections,
    )


def iter_annotations(path, num_classes: int | None = None) -> Iterator[SampleRecord]:
    """Parse and validate a JSONL annotation file one line at a time,
    yielding each record as its line is read. Lines are numbered as
    ``bytes.splitlines`` numbers them (``\\n``, ``\\r\\n`` and a lone ``\\r``
    each end one), blank lines count and yield nothing, and the first bad
    line raises a ``ParseError`` naming the file, the line and the field."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"annotation file {path} does not exist")
    root = os.path.realpath(path.parent)
    with open(path, "rb") as fh:
        # split block by block as bytes.splitlines splits the whole file: each
        # block ends at a b"\n", so no b"\r\n" straddles two
        lines = (raw for block in fh for raw in block.splitlines())
        for line_no, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: not UTF-8: {exc.reason}", line=line_no) from exc
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid JSON: {exc.msg}", line=line_no) from exc
            yield _parse_record(obj, line_no, path, root, num_classes)


def load_annotations(path, num_classes: int | None = None) -> list[SampleRecord]:
    """Every record of ``iter_annotations``; empty file -> empty list."""
    return list(iter_annotations(path, num_classes))


def save_annotations(path, records: list[SampleRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")


def record_sample(
    record: SampleRecord, grid: VisualTokenGrid, encoder: ReferenceEncoder, num_classes: int
) -> fusion.PipelineSample:
    """The model input of one record: its grid, its reference embedded by
    ``encoder``, its detections and box, and its labels as a multi-hot
    (num_classes,) vector."""
    labels = np.zeros(num_classes)
    labels[record.action_labels] = 1.0
    return fusion.PipelineSample(
        grid=grid,
        reference=fusion.prepare_reference(record.reference, encoder),
        detections=record.detections,
        gt_bbox=np.asarray(record.gt_bbox, dtype=np.float64),
        labels=labels,
        sample_id=record.video_id,
    )


class FixtureDataset:
    """A generated dataset directory: meta.json + annotations + RTEN features.

    Opening one checks ``meta.json`` and that the annotation file exists,
    and parses no record: ``iter_samples`` validates each record when its
    chunk is read, and ``records`` and ``len()`` parse the whole file on
    first use."""

    def __init__(self, root):
        self.root = Path(root)
        meta_path = self.root / META_NAME
        if not meta_path.exists():
            raise ParseError(f"dataset meta file {meta_path} does not exist")
        self.meta = read_json_object(meta_path)
        version = self.meta.get("format_version")
        if type(version) is not int or version != FIXTURE_FORMAT_VERSION:
            raise ParseError(f"{meta_path}: unsupported dataset format version {version!r}", field="format_version")
        for name in ("dim", "frames", "grid_rows", "grid_cols", "num_classes", "encoder_seed"):
            value = self.meta.get(name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParseError(f"{meta_path}: missing or not an integer: {value!r}", field=name)
            if value < {"encoder_seed": 0, "dim": 2}.get(name, 1):  # the synthetic encoder needs dim >= 2
                raise ParseError(f"{meta_path}: out of range: {value!r}", field=name)
        self.annotations_path = self.root / ANNOTATIONS_NAME
        if not self.annotations_path.exists():
            raise ParseError(f"annotation file {self.annotations_path} does not exist")

    @functools.cached_property
    def records(self) -> list[SampleRecord]:
        """Every record in one list, parsed and validated in full on first
        read and then kept; ``iter_samples`` does not read it."""
        return load_annotations(self.annotations_path, self.num_classes)

    @property
    def dim(self) -> int:
        return int(self.meta["dim"])

    @property
    def frames(self) -> int:
        return int(self.meta["frames"])

    @property
    def num_classes(self) -> int:
        return int(self.meta["num_classes"])

    @property
    def encoder_seed(self) -> int:
        return int(self.meta["encoder_seed"])

    def __len__(self) -> int:
        return len(self.records)

    def default_encoder(self) -> SyntheticEncoder:
        return SyntheticEncoder(self.dim, self.encoder_seed)

    def load_grid(self, record: SampleRecord) -> VisualTokenGrid:
        """Read a sample's tensor; its frames must match the annotation and
        meta, its cells (``grid_rows`` x ``grid_cols``) and dim the meta."""
        path = self.root / record.features_ref
        try:
            grid = VisualTokenGrid(read_tensor(path))
        except (DimensionError, InputError) as exc:
            raise ParseError(f"{path}: {exc}") from exc
        for name, found, expected, source in (
            ("num_frames", grid.num_frames, record.num_frames, "its record"),
            ("frames", grid.num_frames, self.frames, META_NAME),
            ("cells", grid.num_cells, self.meta["grid_rows"] * self.meta["grid_cols"], META_NAME),
            ("dim", grid.dim, self.dim, META_NAME),
        ):
            if found != expected:
                raise ParseError(
                    f"{self.annotations_path}: video {record.video_id!r} tensor "
                    f"{record.features_ref} has {name} {found}, {source} says {expected}",
                    field=name,
                )
        return grid

    def _sample(self, rec: SampleRecord, encoder: ReferenceEncoder) -> fusion.PipelineSample:
        grid = self.load_grid(rec)
        try:
            return record_sample(rec, grid, encoder, self.num_classes)
        except InputError as exc:
            raise ParseError(
                f"{self.annotations_path}: video {rec.video_id!r}: {exc}", field="reference"
            ) from exc

    def iter_samples(self, encoder: ReferenceEncoder | None = None) -> Iterator[fusion.PipelineSample]:
        """The records' PipelineSamples in record order, built one chunk of
        ``CHUNK_RECORDS`` records at a time: the chunk's tensors are read and
        its references embedded before its first sample is yielded, and the
        chunk is dropped before the next is read. A consumer that keeps each
        sample only until it asks for the next holds one chunk of grids plus
        the last grid of the chunk before, which it still holds while the
        next chunk is read. A chunk's records are parsed from the annotation
        file just before its tensors, so a malformed record, like a bad
        tensor, raises when its chunk is read, after the samples before it."""
        encoder = encoder or self.default_encoder()
        records = iter_annotations(self.annotations_path, self.num_classes)
        while chunk := list(itertools.islice(records, CHUNK_RECORDS)):
            yield from [self._sample(rec, encoder) for rec in chunk]

    def load_samples(self, encoder: ReferenceEncoder | None = None) -> list[fusion.PipelineSample]:
        """Every sample of ``iter_samples`` in one list, all grids in memory."""
        return list(self.iter_samples(encoder))
