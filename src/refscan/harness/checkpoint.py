"""Checkpoint format: one JSON header line, then float64 payloads.

The header records the format version, config snapshot, step counter, rng
state, and a parameter directory of (name, shape, byte offset) entries;
payloads are concatenated little-endian float64 blocks in directory order.
Saving, loading, and saving again yields identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..config import TrainConfig
from ..errors import ParseError
from ..numerics import ParamStore

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


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: invalid checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise ParseError(f"{path}: checkpoint header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {header.get('format_version')}")
    for key in ("config", "step", "rng_state", "params"):
        if key not in header:
            raise ParseError(f"{path}: checkpoint header has no {key!r}", field=key)
    config = TrainConfig.from_dict(header["config"])
    params = ParamStore(seed=int(header.get("seed", 0)))
    for entry in header["params"]:
        try:
            name = str(entry["name"])
            shape = tuple(int(v) for v in entry["shape"])
            offset = int(entry["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: malformed parameter entry {entry!r}", field="params") from exc
        count = int(np.prod(shape)) if shape else 1
        if offset < 0 or offset + 8 * count > len(payload):
            raise ParseError(
                f"{path}: parameter {name!r} needs payload bytes [{offset}, {offset + 8 * count}), "
                f"payload has {len(payload)}",
                field="params",
            )
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        params.add(name, arr.reshape(shape))
    return Checkpoint(config=config, params=params, step=int(header["step"]), rng_state=header["rng_state"])


def rng_state_of(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def rng_from_state(state: dict) -> np.random.Generator:
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng
