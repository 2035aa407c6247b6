"""Synthetic planted-signal fixtures.

Each sample hides the encoded keyword phrase (plus small noise) in one grid
cell at one timestep; the ground-truth box is that cell's rectangle, the
action labels are encoded as fixed per-class signature vectors mixed into
every token (so pooled means carry them), and the keyframe detections
include one true-positive person box at the ground truth plus random
distractors. Generation is a pure function of (config, seed): same inputs,
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..config import TrainConfig, check_kinds, from_fields
from ..errors import ConfigError
from ..retrieval import VisualTokenGrid
from ..semantics import Detection, SyntheticEncoder, synthetic_encode
from .formats import (
    ANNOTATIONS_NAME,
    FEATURES_DIR,
    FIXTURE_FORMAT_VERSION,
    META_NAME,
    SampleRecord,
    record_sample,
    save_annotations,
    write_tensor,
)

_NOUNS = ("man", "woman", "boy", "girl", "person", "worker")
_COLORS = ("red", "blue", "green", "black", "white", "yellow")
_ITEMS = ("shirt", "jacket", "hat", "dress", "coat")
_POSITIONS = ("left", "right", "center", "front", "back")
_DISTRACTOR_CATEGORIES = ("chair", "car", "table", "dog", "phone", "cup")
# The geometry a model shares with its data: (TrainConfig field, GenConfig field and meta.json key)
GEOMETRY = (("d", "dim"), ("frames", "frames"), ("num_classes", "num_classes"))


@dataclass
class GenConfig:
    num_samples: int = 32
    frames: int = 8
    grid_rows: int = 4
    grid_cols: int = 4
    dim: int = 32
    num_classes: int = 10
    seed: int = 7
    # train/eval splits share an embedding space by sharing this seed while
    # drawing different samples via ``seed``; None means "same as seed"
    encoder_seed: int | None = None
    # restrict references to a fixed pool of this size (keyed on the encoder
    # seed) so an eval split can re-draw known references with fresh footage;
    # None uses the full vocabulary with no repeats
    combo_pool: int | None = None
    planted_noise: float = 0.05
    background_scale: float = 0.3
    signature_scale: float = 0.5
    # every cell carries position_scale * unit marker vector (a stand-in for
    # the positional structure real backbone tokens have); the planted cell
    # replaces its marker entirely
    position_scale: float = 1.0
    max_labels: int = 3

    @property
    def effective_encoder_seed(self) -> int:
        return self.seed if self.encoder_seed is None else self.encoder_seed

    def validate(self) -> "GenConfig":
        """Check each field's type, then its range; a bad field raises
        ``ConfigError`` naming it."""
        check_kinds(self)
        for name in ("frames", "grid_rows", "grid_cols", "num_classes", "max_labels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("num_samples", "seed", "encoder_seed", "planted_noise", "background_scale"):
            value = getattr(self, name)  # seeds and noise scales, which numpy rejects below 0
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.max_labels > self.num_classes:
            raise ConfigError("max_labels cannot exceed num_classes")
        if self.combo_pool is not None and self.combo_pool < 1:
            raise ConfigError(f"combo_pool must be >= 1, got {self.combo_pool}")
        if self.combo_pool is None and self.num_samples > num_reference_combos():
            raise ConfigError(
                f"num_samples {self.num_samples} exceeds the reference vocabulary "
                f"({num_reference_combos()}); set combo_pool to allow repeats"
            )
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "GenConfig":
        return from_fields(cls, data, "generator config")


def class_signature(c: int, dim: int, seed: int) -> np.ndarray:
    return synthetic_encode(f"action-{c}", dim, seed)


def cell_marker(s: int, dim: int, seed: int) -> np.ndarray:
    return synthetic_encode(f"cell-{s}", dim, seed)


def target_of_phrase(phrase: str, cfg: "GenConfig") -> tuple[int, int]:
    """Deterministic (frame, cell) for a keyword phrase.

    Placement is keyed on the phrase plus the encoder seed, not the sample
    draw, so two datasets generated with the same encoder seed and grid
    geometry plant any given reference at the same spot; an eval split then
    measures transfer of reference grounding rather than pure chance.
    """
    digest = hashlib.sha256(
        f"{phrase}|{cfg.effective_encoder_seed}".encode("utf-8")
    ).digest()
    frame = int.from_bytes(digest[:8], "little") % cfg.frames
    cell = int.from_bytes(digest[8:16], "little") % (cfg.grid_rows * cfg.grid_cols)
    return frame, cell


def _reference_parts(combo_index: int) -> tuple[str, list[str]]:
    """Decode a combination index into a sentence and its keyword list."""
    noun = _NOUNS[combo_index % len(_NOUNS)]
    combo_index //= len(_NOUNS)
    color = _COLORS[combo_index % len(_COLORS)]
    combo_index //= len(_COLORS)
    item = _ITEMS[combo_index % len(_ITEMS)]
    combo_index //= len(_ITEMS)
    pos = _POSITIONS[combo_index % len(_POSITIONS)]
    text = f"the {noun} in a {color} {item} on the {pos}"
    return text, [noun, color, item, pos]


def num_reference_combos() -> int:
    return len(_NOUNS) * len(_COLORS) * len(_ITEMS) * len(_POSITIONS)


def _draw_combos(cfg: "GenConfig", rng: np.random.Generator) -> np.ndarray:
    total = num_reference_combos()
    if cfg.combo_pool is None:
        return rng.choice(total, size=cfg.num_samples, replace=False)
    pool_rng = np.random.default_rng(cfg.effective_encoder_seed)
    pool = pool_rng.permutation(total)[: min(cfg.combo_pool, total)]
    replace = cfg.num_samples > pool.size
    return rng.choice(pool, size=cfg.num_samples, replace=replace)


def make_sample(
    cfg: GenConfig, rng: np.random.Generator, combo_index: int, sample_index: int
) -> tuple[SampleRecord, np.ndarray]:
    """One record plus its (frames, cells, dim) token grid."""
    rows, cols = cfg.grid_rows, cfg.grid_cols
    cells = rows * cols
    text, keywords = _reference_parts(combo_index)

    grid = rng.normal(0.0, cfg.background_scale, size=(cfg.frames, cells, cfg.dim))
    for s in range(cells):
        grid[:, s, :] += cfg.position_scale * cell_marker(s, cfg.dim, cfg.effective_encoder_seed)

    n_labels = int(rng.integers(1, cfg.max_labels + 1))
    labels = sorted(int(c) for c in rng.choice(cfg.num_classes, size=n_labels, replace=False))
    for c in labels:
        grid += cfg.signature_scale * class_signature(c, cfg.dim, cfg.effective_encoder_seed)

    target_frame, target_cell = target_of_phrase(" ".join(keywords), cfg)
    planted = synthetic_encode(" ".join(keywords), cfg.dim, cfg.effective_encoder_seed)
    grid[target_frame, target_cell] = planted + rng.normal(0.0, cfg.planted_noise, size=cfg.dim)

    r, c = divmod(target_cell, cols)
    gt_bbox = (c / cols, r / rows, (c + 1) / cols, (r + 1) / rows)

    detections = [Detection(bbox=gt_bbox, category="person", confidence=0.95).validate()]
    for _ in range(int(rng.integers(2, 5))):
        x1 = float(rng.uniform(0.0, 0.75))
        y1 = float(rng.uniform(0.0, 0.75))
        w = float(rng.uniform(0.05, 0.2))
        h = float(rng.uniform(0.05, 0.2))
        detections.append(
            Detection(
                bbox=(x1, y1, min(1.0, x1 + w), min(1.0, y1 + h)),
                category=str(rng.choice(_DISTRACTOR_CATEGORIES)),
                confidence=float(rng.uniform(0.3, 0.8)),
            ).validate()
        )

    video_id = f"clip{sample_index:05d}"
    record = SampleRecord(
        video_id=video_id,
        num_frames=cfg.frames,
        keyframe_index=cfg.frames // 2,
        reference=text,
        gt_bbox=gt_bbox,
        action_labels=labels,
        features_ref=f"{FEATURES_DIR}/{video_id}.rten",
        detections=detections,
    )
    return record, grid


def _drawn(cfg: GenConfig):
    """Each sample's ``make_sample`` pair, in sample order. The config is
    validated and the combos drawn when this is called; each pair is drawn,
    from the same rng, when it is taken."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    combos = _draw_combos(cfg, rng)
    return (make_sample(cfg, rng, int(combo), i) for i, combo in enumerate(combos))


def synth_samples(cfg: GenConfig):
    """In-memory PipelineSamples with targets, no disk round trip."""
    drawn = _drawn(cfg)
    encoder = SyntheticEncoder(cfg.dim, cfg.effective_encoder_seed)
    return [record_sample(record, VisualTokenGrid(grid), encoder, cfg.num_classes) for record, grid in drawn]


def generate_fixtures(cfg: GenConfig, out_dir) -> Path:
    """Write meta.json, annotations.jsonl, and one RTEN file per sample."""
    drawn = _drawn(cfg)
    out = Path(out_dir)
    (out / FEATURES_DIR).mkdir(parents=True, exist_ok=True)
    records = []
    for record, grid in drawn:
        write_tensor(out / record.features_ref, grid)
        records.append(record)

    save_annotations(out / ANNOTATIONS_NAME, records)
    meta = dict(cfg.to_dict())
    meta["format_version"] = FIXTURE_FORMAT_VERSION
    meta["encoder_seed"] = cfg.effective_encoder_seed
    with open(out / META_NAME, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta, sort_keys=True))
        fh.write("\n")
    return out


def default_train_config(cfg: GenConfig, **overrides) -> TrainConfig:
    """TrainConfig whose geometry and seed are a generator config's."""
    base = {field: getattr(cfg, key) for field, key in GEOMETRY}
    return TrainConfig(**{**base, "seed": cfg.seed, **overrides}).validate()
