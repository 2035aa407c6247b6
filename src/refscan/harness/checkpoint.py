"""Checkpoint format: one JSON header line, then float64 payloads.

The header records the format version, config snapshot, step counter, rng
state, and a parameter directory of (name, shape, byte offset) entries;
payloads are concatenated little-endian float64 blocks in directory order.
Saving, loading, and saving again yields identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..config import TrainConfig
from ..errors import ConfigError, ParseError
from ..fusion import param_layout
from ..numerics.params import ParamStore

CHECKPOINT_VERSION = 1


@dataclass
class Checkpoint:
    config: TrainConfig
    params: ParamStore
    step: int
    rng_state: dict


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    names = sorted(ckpt.params.names())
    directory = []
    offset = 0
    blocks = []
    for name in names:
        arr = np.ascontiguousarray(ckpt.params[name], dtype="<f8")
        directory.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blocks.append(arr.tobytes())
        offset += len(blocks[-1])
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": ckpt.config.to_dict(),
        "step": int(ckpt.step),
        "seed": int(ckpt.params.seed),
        "rng_state": ckpt.rng_state,
        "params": directory,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for block in blocks:
            fh.write(block)


def _count(path, value, field: str, what: str | None = None) -> int:
    """A header integer that counts something (``what``, by default the
    field): an int, not a bool, >= 0."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ParseError(f"{path}: {what or field} must be an integer >= 0, got {value!r}", field=field)
    return value


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a malformed header value is a ``ParseError`` naming
    the file and the field. The directory's blocks must tile the payload
    (each starts where the one before it ends, the last ends with it), every
    value must be finite, and the parameters must have the shapes
    ``param_layout`` gives the config, which builds no model."""
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, an over-long integer, or nesting too deep
        raise ParseError(f"{path}: invalid checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError(f"{path}: checkpoint header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {header.get('format_version')!r}")
    for key in ("config", "step", "seed", "rng_state", "params"):
        if key not in header:
            raise ParseError(f"{path}: checkpoint header has no {key!r}", field=key)
    try:
        config = TrainConfig.from_dict(header["config"])
        expected = {name: shape for name, shape, _ in param_layout(config)}
    except ConfigError as exc:
        raise ParseError(f"{path}: invalid config: {exc}", field="config") from exc
    step = _count(path, header["step"], "step")
    if not isinstance(header["rng_state"], dict):
        raise ParseError(f"{path}: rng_state must be a JSON object", field="rng_state")
    if not isinstance(header["params"], list):
        raise ParseError(f"{path}: params must be a list of parameter entries", field="params")
    seed = _count(path, header["seed"], "seed")
    arrays: dict[str, np.ndarray] = {}
    name, end = None, 0
    for entry in header["params"]:
        try:
            name = str(entry["name"])
            shape = entry["shape"]
            offset = entry["offset"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"{path}: malformed parameter entry {entry!r}", field="params") from exc
        if not isinstance(shape, list):
            raise ParseError(f"{path}: parameter {name!r} shape must be a list, got {shape!r}", field="params")
        if name in arrays:
            raise ParseError(f"{path}: duplicate parameter name {name!r}", field="params")
        shape = tuple(_count(path, v, "params", f"parameter {name!r} dim") for v in shape)
        offset = _count(path, offset, "params", f"parameter {name!r} offset")
        count = math.prod(shape)
        if offset != end:
            raise ParseError(
                f"{path}: parameter {name!r} starts at payload byte {offset}, not at {end}, "
                "where the block before it ends",
                field="params",
            )
        end = offset + 8 * count
        if end > len(payload):
            raise ParseError(
                f"{path}: parameter {name!r} needs payload bytes [{offset}, {end}), payload has {len(payload)}",
                field="params",
            )
        arrays[name] = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)
        if not np.isfinite(arrays[name]).all():
            raise ParseError(f"{path}: parameter {name!r} holds a non-finite value", field="params")
    if end != len(payload):
        raise ParseError(
            f"{path}: payload has {len(payload) - end} bytes past the last parameter block ({name!r})",
            field="params",
        )
    found = {name: arr.shape for name, arr in arrays.items()}
    if found != expected:
        wrong = sorted(n for n in expected.keys() | found.keys() if expected.get(n) != found.get(n))
        raise ParseError(
            f"{path}: parameters do not match the config at {wrong[0]!r}: "
            f"shape {found.get(wrong[0], 'missing')}, expected {expected.get(wrong[0], 'none')}",
            field="params",
        )
    return Checkpoint(config=config, params=ParamStore(arrays, seed=seed), step=step, rng_state=header["rng_state"])


def rng_state_of(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def rng_from_state(state: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng
