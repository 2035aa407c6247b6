"""Semantic token construction for the three query hierarchies.

Produces the holistic sentence embedding, the stop-word-filtered keyword
embeddings, and the detection-derived scene-attribute tokens, one
``(K, d)`` array of projected detection features per sample. Text encoding
is pluggable; the default is a deterministic hash-seeded synthetic encoder
so the whole pipeline runs without any pretrained backbone.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Protocol

import numpy as np

from .errors import AdapterError, ConfigError, InputError

_WORD_RE = re.compile(r"[a-z0-9']+")


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    text = resources.files("refscan.data").joinpath("stopwords.txt").read_text("utf-8")
    return parse_stopwords(text)


def parse_stopwords(text: str) -> frozenset[str]:
    """One lowercase token per line; '#' starts a comment."""
    words = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            words.add(line.lower())
    return frozenset(words)


def tokenize_and_filter(text: str, stop_set: frozenset[str] | set[str]) -> tuple[list[str], list[str]]:
    """Lowercase, split on whitespace/punctuation, then drop stop words.

    Order is preserved in both lists and duplicate keywords are kept.
    """
    if not text or not text.strip():
        raise InputError("reference text is empty")
    words = [w.strip("'") for w in _WORD_RE.findall(text.lower())]
    words = [w for w in words if w]
    keywords = [w for w in words if w not in stop_set]
    return words, keywords


def synthetic_encode(word: str, dim: int, seed: int) -> np.ndarray:
    """Deterministic unit vector for a token: hash-seeded PRNG, L2-normalized.

    The same (word, dim, seed) triple always yields bitwise-identical output;
    the hash is content-based (sha256), not Python's salted ``hash``.
    """
    if dim < 2:
        raise ConfigError(f"synthetic_encode: dim must be >= 2, got {dim}")
    digest = hashlib.sha256(word.encode("utf-8") + b"\x00" + str(int(seed)).encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class ReferenceEncoder(Protocol):
    """Adapter contract for turning text into embeddings."""

    dim: int

    def encode_word(self, word: str) -> np.ndarray: ...

    def encode_sentence(self, words: list[str]) -> np.ndarray: ...


class SyntheticEncoder:
    """Default encoder: per-word hash vectors; sentence = renormalized mean.

    Word vectors are cached per instance and returned read-only, so a word
    costs one sha256 and one generator per encoder, not one per call.
    """

    def __init__(self, dim: int, seed: int):
        self.dim = int(dim)
        self.seed = int(seed)
        self._words: dict[str, np.ndarray] = {}

    def encode_word(self, word: str) -> np.ndarray:
        vec = self._words.get(word)
        if vec is None:
            vec = synthetic_encode(word, self.dim, self.seed)
            vec.flags.writeable = False
            self._words[word] = vec
        return vec

    def encode_sentence(self, words: list[str]) -> np.ndarray:
        if not words:
            raise InputError("cannot encode an empty sentence")
        mean = np.mean([self.encode_word(w) for w in words], axis=0)
        norm = np.linalg.norm(mean)
        if norm == 0.0:
            # opposite word vectors can cancel; fall back to the first word
            return self.encode_word(words[0]).reshape(1, -1).copy()
        return (mean / norm).reshape(1, -1)


@dataclass
class ReferenceBundle:
    """Everything derived from one reference sentence."""

    raw_text: str
    words: list[str]
    keywords: list[str]
    holistic: np.ndarray  # (N_R, d)
    keyword_embeddings: np.ndarray  # (num_keywords, d)

    @property
    def num_keywords(self) -> int:
        return len(self.keywords)


def embed_reference(
    text: str,
    stop_set: frozenset[str] | set[str],
    encoder: ReferenceEncoder,
) -> ReferenceBundle:
    """Tokenize, filter, and encode a reference sentence.

    The holistic row(s) come from the full word sequence; keyword rows are
    per-surviving-word. An all-stop-word sentence yields an empty keyword
    matrix (that hierarchy is then disabled downstream).
    """
    words, keywords = tokenize_and_filter(text, stop_set)
    if not words:
        raise InputError(f"reference {text!r} contains no encodable words")
    try:
        holistic = np.asarray(encoder.encode_sentence(words), dtype=np.float64)
    except (AdapterError, InputError):
        raise
    except Exception as exc:
        raise AdapterError(f"encoder failed on sentence {text!r}: {exc}") from exc
    if holistic.ndim != 2:
        holistic = holistic.reshape(1, -1)
    if keywords:
        rows = []
        for idx, kw in enumerate(keywords):
            try:
                rows.append(np.asarray(encoder.encode_word(kw), dtype=np.float64))
            except AdapterError:
                raise
            except Exception as exc:  # adapter misbehaved: tag with word position
                raise AdapterError(f"encoder failed on keyword {idx} ({kw!r}): {exc}") from exc
        keyword_embeddings = np.stack(rows, axis=0)
    else:
        keyword_embeddings = np.zeros((0, holistic.shape[1]))
    return ReferenceBundle(text, words, keywords, holistic, keyword_embeddings)


@dataclass(slots=True)
class Detection:
    """One keyframe detection: normalized corner box, category, confidence."""

    bbox: tuple[float, float, float, float]
    category: str
    confidence: float

    def validate(self) -> "Detection":
        x1, y1, x2, y2 = self.bbox
        if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
            raise InputError(f"detection bbox {self.bbox} is not a normalized x1<x2,y1<y2 box")
        if not (0.0 <= self.confidence <= 1.0):
            raise InputError(f"detection confidence {self.confidence} outside [0,1]")
        return self


def confident_detections(
    detections: list[Detection], conf_threshold: float = 0.7, max_count: int = 10
) -> list[Detection]:
    """The detections at or above the confidence threshold, sorted by
    descending confidence (stable in original order on ties), truncated to
    ``max_count``: the ones that become scene-attribute tokens."""
    kept = [det for det in detections if det.confidence >= conf_threshold]
    kept.sort(key=lambda det: -det.confidence)
    return kept[: int(max_count)]


def build_scene_attribute_tokens(
    detections: list[Detection],
    encoder: ReferenceEncoder,
    proj_w: np.ndarray,
    conf_threshold: float = 0.7,
    max_count: int = 10,
) -> np.ndarray:
    """(K, d_out) projections of concat(category embedding, bbox), one row
    per ``confident_detections`` entry, in its order.

    The projection input dim must equal encoder dim + 4. Each row is its
    own one-row product, so it keeps the bits of the detection projected
    alone; one flat (K, d + 4) product would round differently.
    """
    proj_w = np.asarray(proj_w, dtype=np.float64)
    if proj_w.ndim != 2 or proj_w.shape[0] != encoder.dim + 4:
        raise ConfigError(f"scene projection expects input dim {encoder.dim + 4}, got weights {proj_w.shape}")
    feats = [
        np.concatenate([encoder.encode_word(det.category), np.asarray(det.bbox, dtype=np.float64)])
        for det in confident_detections(detections, conf_threshold, max_count)
    ]
    feats = np.array(feats, dtype=np.float64).reshape(len(feats), proj_w.shape[0])
    return (feats[:, None, :] @ proj_w)[:, 0]
