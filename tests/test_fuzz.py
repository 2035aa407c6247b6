"""Corrupted inputs through the CLI: no traceback, and a failure names the file.

Each case copies a tiny generated dataset and a checkpoint trained on it,
damages one file, and runs ``refscan eval`` (and, for the dataset files,
``refscan train``) through ``cli.main``. The damage is a byte flip,
truncation, insertion or deletion, or, in a JSON file, one value swapped
for ``-1``, ``0``, ``1e309``, ``null``, ``"x"`` or ``[]``. A run either
succeeds (the damage left a valid file, say a flipped digit) or exits 1
with an ``error:`` line that names the damaged file; any other exception
escapes ``main`` and fails the test. Byte damage to a tensor payload is
another valid float, so it is aimed at the header; a non-finite payload
value is swapped in on its own. A generator config file is damaged the
same way and run through ``refscan gen --config``; its one ``error:`` line
names the file or a field. The cases come from one seeded
``random.Random``, so a failure reproduces from its case number.
"""

from __future__ import annotations

import json
import random
import shutil
import struct

import pytest

from refscan.harness.cli import main
from refscan.harness.fixtures import GenConfig

SEED = 20
CASES = 40  # per damaged file
SWAPS = ["-1", "0", "1e309", "null", '"x"', "[]"]
TRAIN_CONFIG = {
    "d": 4, "d_s": 2, "d_a": 2, "n": 2, "n_prompts": 1, "frames": 2, "num_classes": 3,
    "batch": 2, "steps": 1, "learning_rate": 1e-3, "seed": 1,
}

GEN_CONFIG = {
    **GenConfig().to_dict(), "num_samples": 2, "frames": 2, "grid_rows": 1, "grid_cols": 2, "dim": 4,
    "num_classes": 3, "seed": 11, "max_labels": 2,
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine")
    assert main(["gen", "--num", "2", "--frames", "2", "--grid", "1x2", "--dim", "4",
                 "--classes", "3", "--seed", "11", "--out", str(root / "data")]) == 0
    (root / "train.json").write_text(json.dumps(TRAIN_CONFIG))
    assert main(["train", "--data", str(root / "data"), "--config", str(root / "train.json"),
                 "--out-ckpt", str(root / "model.ckpt")]) == 0
    return root


def _leaves(value, path=()):
    """Every scalar position in a JSON value, as key paths."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [path]
    return [leaf for key, item in items for leaf in _leaves(item, (*path, key))]


def _swap_value(text: str, rng: random.Random) -> str:
    """``text`` (one JSON document) with one scalar replaced by a swap value."""
    doc = json.loads(text)
    leaves = _leaves(doc)
    if leaves == [()]:
        return rng.choice(SWAPS)
    path = rng.choice(leaves)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = marker = "<swapped value>"
    return json.dumps(doc).replace(json.dumps(marker), rng.choice(SWAPS))


def _damage_bytes(blob: bytes, rng: random.Random, end: int | None = None) -> bytes:
    """One byte flip, truncation, insertion or deletion at or before ``end``."""
    end = len(blob) if end is None else min(end, len(blob))
    at = rng.randrange(max(end, 1))
    kind = rng.choice(["flip", "truncate", "insert", "delete"])
    if kind == "flip" and blob:
        return blob[:at] + bytes([blob[at] ^ rng.randrange(1, 256)]) + blob[at + 1:]
    if kind == "truncate":
        return blob[:at]
    if kind == "insert":
        return blob[:at] + bytes([rng.randrange(256)]) + blob[at:]
    return blob[:at] + blob[at + 1:]


def _damage_json_lines(blob: bytes, rng: random.Random) -> bytes:
    if rng.random() < 0.5:
        return _damage_bytes(blob, rng)
    lines = blob.decode("utf-8").splitlines()
    k = rng.randrange(len(lines))
    lines[k] = _swap_value(lines[k], rng)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _damage_checkpoint(blob: bytes, rng: random.Random) -> bytes:
    header, payload = blob.split(b"\n", 1)
    if rng.random() < 0.5:  # most payload bytes are a float's, so aim at the header
        return _damage_bytes(blob, rng, end=len(header) + 1)
    return _swap_value(header.decode("utf-8"), rng).encode("utf-8") + b"\n" + payload


def _damage_tensor(blob: bytes, rng: random.Random) -> bytes:
    start = 12 + 4 * struct.unpack_from("<I", blob, 8)[0]  # where the payload starts
    if rng.random() < 0.2:  # one payload value made non-finite
        at = start + 8 * rng.randrange((len(blob) - start) // 8)
        value = rng.choice([float("nan"), float("inf"), -float("inf")])
        return blob[:at] + struct.pack("<d", value) + blob[at + 8:]
    return _damage_bytes(blob, rng, end=start + 1)


def _cases(target: str):
    rng = random.Random(f"{SEED}:{target}")
    return [(k, random.Random(rng.random())) for k in range(CASES)]


@pytest.mark.parametrize("target", ["meta.json", "annotations.jsonl", "features", "model.ckpt"])
def test_damaged_input_exits_1_naming_the_file(pristine, tmp_path, capsys, target):
    for case, rng in _cases(target):
        work = tmp_path / str(case)
        shutil.copytree(pristine, work)
        if target == "features":
            victim = rng.choice(sorted((work / "data" / "features").glob("*.rten")))
            damage = _damage_tensor
        elif target == "model.ckpt":
            victim, damage = work / "model.ckpt", _damage_checkpoint
        else:
            victim, damage = work / "data" / target, _damage_json_lines
        victim.write_bytes(damage(victim.read_bytes(), rng))
        runs = [["eval", "--ckpt", str(work / "model.ckpt"), "--data", str(work / "data"),
                 "--report", str(work / "report.json")]]
        if target != "model.ckpt":
            runs.append(["train", "--data", str(work / "data"), "--config", str(work / "train.json"),
                         "--out-ckpt", str(work / "again.ckpt")])
        for argv in runs:
            capsys.readouterr()
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1), (case, argv[0], code)
            if code == 1:
                assert err.startswith("error: ") and victim.name in err, (case, argv[0], err)
        shutil.rmtree(work)


def test_damaged_gen_config_exits_1_naming_the_file_or_field(tmp_path, capsys):
    for case, rng in _cases("gen.json"):
        work = tmp_path / str(case)
        work.mkdir()
        victim = work / "gen.json"
        victim.write_bytes(_damage_json_lines(json.dumps(GEN_CONFIG).encode("utf-8"), rng))
        try:
            keys = list(json.loads(victim.read_bytes()))
        except ValueError:
            keys = []
        capsys.readouterr()
        code = main(["gen", "--config", str(victim), "--out", str(work / "data")])
        err = capsys.readouterr().err
        assert code in (0, 1), (case, code)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
            assert victim.name in err or any(repr(key) in err or key in err for key in keys), (case, err)
        shutil.rmtree(work)
