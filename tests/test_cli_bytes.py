"""Byte-level fingerprints of what the command line writes.

``tests/test_fingerprints.py`` pins the model's numbers in memory; these
tests pin the bytes that ``refscan`` writes and prints, so that a refactor
which moves a byte of a generated tree, a checkpoint, a loss log, a report,
the gradient-check table or an oracle line fails here:

- two ``refscan gen`` trees, one from flags alone and one from ``--config``
  fields with flags over them;
- the checkpoint and ``--log`` CSV of a small ``refscan train`` run on the
  first tree, and of the same run with the keyword hierarchy off;
- the ``refscan eval`` report of the first checkpoint on that tree;
- the standard output of ``refscan gradcheck --seed 3``;
- the standard output of ``refscan oracle`` for each suite, with its
  seconds masked.

A tree's digest covers each file's path relative to the tree's root and its
bytes, in path order. The digests were computed with numpy 2.4.6 on
CPython 3.11 (x86-64). A different numpy or BLAS may round some products
differently, and a different CPython may format a float or order a JSON
key differently; when the digests move with nothing else changed, recompute
them there, and check that the other tests still pass.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from refscan.harness.cli import main

FLAG_TREE_SHA256 = "79a98d6f9f5a8ea4b60f7da37dea401f8c1672ccb3e09f556c16319e4a041014"
CONFIG_TREE_SHA256 = "17ac8188b30763f87b451e31f70729bea357e68a3b1b046c044c4fcc65bbcc2d"
CHECKPOINT_SHA256 = {
    "full": "1d01c0cdb740ddff220a7e90961963d84f315bbec39d98046f7c4fd5581a151e",
    "no_keyword": "6b5180e09f9c7b1dc9035f125a5e019bc1d803ee7dfd2e22fc4227034b22efe9",
}
LOSS_LOG_SHA256 = {
    "full": "4b48090af52f65e63df54503df7fca8041ce23eda063ec5296ca7b2a08fcfd58",
    "no_keyword": "d98736a918413f65485487c1e2f2e53ce7bb053736b026770eecc37ec107aca1",
}
REPORT_SHA256 = "98eb53ab4b0a9ac2144783e72f4c7f0ce74c0539003f2a5982ef8e233607502d"
GRADCHECK_STDOUT_SHA256 = "a208756ac6f3aa492fede71bb1e93cab5dc7747f51bd8125a8ef073a94f42530"
ORACLE_STDOUT_SHA256 = {
    "auroc": "7830ccaeef6b00d7b62ef98822b4510ef1e53eeaa6745aa35428ae9fe1ca96d7",
    "map": "4720cd5466f9cbacfe543e27a872ea0e04904dfb749455b7bdc9f23993fd8c4e",
    "scan": "0d6b6a4099392744f0e89e8ffc61a3a8e7f2efd6fd5975aa0fba0d27e1de8291",
}

FLAG_GEN = ["--num", "6", "--frames", "4", "--grid", "3x2", "--dim", "16", "--classes", "5", "--seed", "11"]
CONFIG_GEN_FIELDS = {"combo_pool": 5, "encoder_seed": 9, "planted_noise": 0.1}
CONFIG_GEN_FLAGS = ["--grid", "2x3", "--frames", "5", "--seed", "4"]
TRAIN_FIELDS = {
    "d": 16, "d_s": 8, "d_a": 8, "n": 4, "n_prompts": 2, "frames": 4, "num_classes": 5,
    "batch": 2, "steps": 6, "learning_rate": 1e-3, "lr_decay": 1.0, "seed": 1,
}
VARIANTS = {"full": {}, "no_keyword": {"use_keyword": False}}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_sha256(root) -> str:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return _sha256(json.dumps([[p.relative_to(root).as_posix(), _sha256(p.read_bytes())] for p in files]).encode())


def _stdout(capsys, argv: list[str]) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The two generated trees, and per variant the checkpoint and loss log
    of a run on the flag tree."""
    tmp = tmp_path_factory.mktemp("cli_bytes")
    flag_tree, config_tree = tmp / "flags", tmp / "config"
    assert main(["gen", *FLAG_GEN, "--out", str(flag_tree)]) == 0
    gen_config = tmp / "gen.json"
    gen_config.write_text(json.dumps(CONFIG_GEN_FIELDS))
    assert main(["gen", "--config", str(gen_config), *CONFIG_GEN_FLAGS, "--out", str(config_tree)]) == 0
    trained = {}
    for name, overrides in VARIANTS.items():
        config = tmp / f"{name}.json"
        config.write_text(json.dumps({**TRAIN_FIELDS, **overrides}))
        ckpt, log = tmp / f"{name}.ckpt", tmp / f"{name}.csv"
        argv = ["train", "--data", str(flag_tree), "--config", str(config), "--out-ckpt", str(ckpt), "--log", str(log)]
        assert main(argv) == 0
        trained[name] = ckpt, log
    return flag_tree, config_tree, trained


def test_gen_trees(runs):
    flag_tree, config_tree, _ = runs
    assert (_tree_sha256(flag_tree), _tree_sha256(config_tree)) == (FLAG_TREE_SHA256, CONFIG_TREE_SHA256)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_train_checkpoint_and_log(runs, variant):
    ckpt, log = runs[2][variant]
    assert _sha256(ckpt.read_bytes()) == CHECKPOINT_SHA256[variant]
    assert _sha256(log.read_bytes()) == LOSS_LOG_SHA256[variant]


def test_eval_report(runs, tmp_path):
    flag_tree, _, trained = runs
    report = tmp_path / "report.json"
    assert main(["eval", "--ckpt", str(trained["full"][0]), "--data", str(flag_tree), "--report", str(report)]) == 0
    assert _sha256(report.read_bytes()) == REPORT_SHA256


def test_gradcheck_stdout(capsys):
    assert _sha256(_stdout(capsys, ["gradcheck", "--seed", "3"]).encode()) == GRADCHECK_STDOUT_SHA256


@pytest.mark.parametrize("suite", sorted(ORACLE_STDOUT_SHA256))
def test_oracle_stdout(capsys, suite):
    out = re.sub(r"\d+\.\d+s ->", "<s> ->", _stdout(capsys, ["oracle", "--suite", suite]))
    assert _sha256(out.encode()) == ORACLE_STDOUT_SHA256[suite]
