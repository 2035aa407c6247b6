"""On-disk dataset formats: RTEN tensor files and JSONL annotations.

RTEN layout: magic ``RTEN``, then little-endian u32 version, u32 rank, one
u32 per dim, then the float64 payload row-major. Annotations are UTF-8
JSON-lines; every record is validated on load and the file is rejected at
the first violation with its line number.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ParseError
from ..retrieval import VisualTokenGrid
from ..semantics import Detection, ReferenceEncoder, SyntheticEncoder

RTEN_MAGIC = b"RTEN"
RTEN_VERSION = 1

META_NAME = "meta.json"
ANNOTATIONS_NAME = "annotations.jsonl"
FEATURES_DIR = "features"


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
    count = int(np.prod(dims)) if rank else 1
    expected = offset + 8 * count
    if len(blob) != expected:
        raise ParseError(f"{path}: payload length {len(blob)} != expected {expected}")
    return np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(dims).copy()


@dataclass
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
        payload = {
            "video_id": self.video_id,
            "num_frames": self.num_frames,
            "keyframe_index": self.keyframe_index,
            "reference": self.reference,
            "gt_bbox": list(self.gt_bbox),
            "action_labels": list(self.action_labels),
            "features_ref": self.features_ref,
            "detections": [
                {"bbox": list(d.bbox), "category": d.category, "confidence": d.confidence}
                for d in self.detections
            ],
        }
        return json.dumps(payload, sort_keys=True)


_REQUIRED_FIELDS = (
    "video_id",
    "num_frames",
    "keyframe_index",
    "reference",
    "gt_bbox",
    "action_labels",
    "features_ref",
    "detections",
)


def _int_field(obj: dict, name: str, line_no: int) -> int:
    try:
        return int(obj[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{name} must be an integer, got {obj[name]!r}", line=line_no, field=name) from exc


def _parse_record(obj: dict, line_no: int, root: Path, num_classes: int | None) -> SampleRecord:
    for name in _REQUIRED_FIELDS:
        if name not in obj:
            raise ParseError("missing field", line=line_no, field=name)
    bbox = obj["gt_bbox"]
    if (
        not isinstance(bbox, list)
        or len(bbox) != 4
        or not all(isinstance(v, (int, float)) for v in bbox)
    ):
        raise ParseError("gt_bbox must be four numbers", line=line_no, field="gt_bbox")
    x1, y1, x2, y2 = (float(v) for v in bbox)
    if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
        raise ParseError(
            f"gt_bbox {bbox} must satisfy 0<=x1<x2<=1 and 0<=y1<y2<=1",
            line=line_no,
            field="gt_bbox",
        )
    num_frames = _int_field(obj, "num_frames", line_no)
    keyframe = _int_field(obj, "keyframe_index", line_no)
    if not (0 <= keyframe < num_frames):
        raise ParseError(
            f"keyframe_index {keyframe} outside [0, {num_frames})",
            line=line_no,
            field="keyframe_index",
        )
    labels = obj["action_labels"]
    if not isinstance(labels, list) or not all(isinstance(v, int) and v >= 0 for v in labels):
        raise ParseError("action_labels must be non-negative ints", line=line_no, field="action_labels")
    if num_classes is not None and any(v >= num_classes for v in labels):
        raise ParseError(
            f"label out of range for {num_classes} classes", line=line_no, field="action_labels"
        )
    if not str(obj["reference"]).strip():
        raise ParseError("reference text is empty", line=line_no, field="reference")
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
        except Exception as exc:
            raise ParseError(f"detection {k}: {exc}", line=line_no, field="detections") from exc
    features_ref = str(obj["features_ref"])
    if not (root / features_ref).exists():
        raise ParseError(
            f"features file {features_ref!r} not found under {root}",
            line=line_no,
            field="features_ref",
        )
    return SampleRecord(
        video_id=str(obj["video_id"]),
        num_frames=num_frames,
        keyframe_index=keyframe,
        reference=str(obj["reference"]),
        gt_bbox=(x1, y1, x2, y2),
        action_labels=[int(v) for v in labels],
        features_ref=features_ref,
        detections=detections,
    )


def load_annotations(path, num_classes: int | None = None) -> list[SampleRecord]:
    """Parse and validate a JSONL annotation file; empty file -> empty list."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"annotation file {path} does not exist")
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=line_no) from exc
            records.append(_parse_record(obj, line_no, path.parent, num_classes))
    return records


def save_annotations(path, records: list[SampleRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")


class FixtureDataset:
    """A generated dataset directory: meta.json + annotations + RTEN features."""

    def __init__(self, root):
        self.root = Path(root)
        meta_path = self.root / META_NAME
        if not meta_path.exists():
            raise ParseError(f"dataset meta file {meta_path} does not exist")
        with open(meta_path, "r", encoding="utf-8") as fh:
            self.meta = json.load(fh)
        self.records = load_annotations(
            self.root / ANNOTATIONS_NAME, num_classes=self.meta.get("num_classes")
        )

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
        return VisualTokenGrid(read_tensor(self.root / record.features_ref))

    def load_samples(self, encoder: ReferenceEncoder | None = None):
        """Materialize PipelineSamples (grids read, references embedded once)."""
        from ..fusion import PipelineSample, prepare_reference

        encoder = encoder or self.default_encoder()
        samples = []
        for rec in self.records:
            labels = np.zeros(self.num_classes)
            labels[rec.action_labels] = 1.0
            samples.append(
                PipelineSample(
                    grid=self.load_grid(rec),
                    reference=prepare_reference(rec.reference, encoder),
                    detections=rec.detections,
                    gt_bbox=np.asarray(rec.gt_bbox, dtype=np.float64),
                    labels=labels,
                    sample_id=rec.video_id,
                )
            )
        return samples
