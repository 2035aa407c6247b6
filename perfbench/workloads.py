"""The benchmark's workloads: inputs made from the seed, the CLI command one
session runs, and the checks on what the sessions wrote.

Every input is a pure function of the workload seed. The sessions see only
the generated files (and, for gradcheck-desk, the seed the CLI takes).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from refscan.config import TrainConfig
from refscan.fusion import init_model_params
from refscan.harness.checkpoint import load_checkpoint, save_checkpoint
from refscan.harness.fixtures import GenConfig, default_train_config, generate_fixtures, synth_samples
from refscan.harness.formats import ANNOTATIONS_NAME, load_annotations
from refscan.harness.suites import GRADCHECK_CONFIG
from refscan.harness.training import train
from refscan.metrics import EvalRecord, auroc_oracle, multilabel_map_oracle
from refscan.semantics import SyntheticEncoder

# The learnability acceptance schedule; a session's step count is its length.
DESK_SCHEDULE = dict(
    batch=8, d_a=32, learning_rate=8e-3, lr_decay=0.992, warmup_ratio=0.1, lambda_box=4.0, aux_branch_loss=True
)
GRADCHECK_TOL = 1e-4
ORACLE_TOL = 1e-9
COMBO_POOL = 64
EVAL_SEED_OFFSET = 1_000_003  # eval-fresh grids come from another generator seed than its train split


@dataclass(frozen=True)
class Sizes:
    desk: dict  # GenConfig geometry shared by the train-desk and eval-fresh splits
    schedule: dict
    train_steps: int  # optimizer steps in one train-desk session
    eval_samples: int  # size of the eval-fresh split
    eval_ckpt_steps: int  # untimed training that makes the eval-fresh checkpoint
    gradcheck: dict = field(default_factory=dict)  # TrainConfig overrides; empty = GRADCHECK_CONFIG


FULL = Sizes(
    desk=dict(num_samples=32, frames=8, grid_rows=4, grid_cols=4, dim=32, num_classes=10),
    schedule=DESK_SCHEDULE,
    train_steps=64,
    eval_samples=1024,
    eval_ckpt_steps=40,
)

# Tiny sizes for the benchmark's own tests; gradcheck keeps the GRADCHECK_GEN
# geometry the CLI fixes and shrinks only the model.
SMOKE = Sizes(
    desk=dict(num_samples=8, frames=4, grid_rows=2, grid_cols=2, dim=16, num_classes=5),
    schedule=dict(DESK_SCHEDULE, batch=4, d_a=8),
    train_steps=12,
    eval_samples=24,
    eval_ckpt_steps=4,
    gradcheck=dict(d_s=2, d_a=2, n=2, n_prompts=1),
)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def rows_digest(rows: list[dict]) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()


class TrainDesk:
    """`refscan train` on a generated dataset; one item = one optimizer step."""

    name = "train-desk"

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.work = work
        self.steps = sizes.train_steps
        gen = GenConfig(**sizes.desk, seed=seed)
        self.data = generate_fixtures(gen, work / "data")
        self.config = work / "train.json"
        self.config.write_text(json.dumps(dict(sizes.schedule, steps=self.steps, seed=seed)))

    def cli_args(self, out: Path) -> list[str]:
        return [
            "train", "--data", str(self.data), "--config", str(self.config),
            "--out-ckpt", str(out / "model.ckpt"), "--log", str(out / "loss.csv"),
        ]

    def check(self, sessions: list[dict]) -> tuple[dict, dict]:
        """(named pass/fail checks, fingerprints and notes on the outputs)"""
        finite = decreasing = True
        for s in sessions:
            with open(Path(s["out"]) / "loss.csv", encoding="utf-8") as fh:
                losses = [float(row["loss"]) for row in csv.DictReader(fh)]
            finite &= len(losses) == self.steps and all(math.isfinite(v) for v in losses)
            window = max(1, min(10, len(losses) // 4))
            decreasing &= bool(losses) and np.mean(losses[-window:]) < np.mean(losses[:window])
        first = Path(sessions[0]["out"]) / "model.ckpt"
        again = self.work / "roundtrip.ckpt"
        save_checkpoint(again, load_checkpoint(first))
        digests = {sha256_file(Path(s["out"]) / "model.ckpt") for s in sessions}
        checks = {
            "losses_finite": finite,
            "late_loss_below_early": bool(decreasing),
            "checkpoint_round_trip": again.read_bytes() == first.read_bytes(),
        }
        return checks, {"checkpoint_sha256": sha256_file(first), "sessions_agree": len(digests) == 1}


class EvalFresh:
    """`refscan eval` of a benchmark-made checkpoint on a large fresh split;
    one item = one sample."""

    name = "eval-fresh"

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.num_samples = sizes.eval_samples
        shared = dict(sizes.desk, encoder_seed=seed, combo_pool=COMBO_POOL)
        train_gen = GenConfig(**shared, seed=seed)
        config = default_train_config(train_gen, **dict(sizes.schedule, steps=sizes.eval_ckpt_steps))
        result = train(config, synth_samples(train_gen), SyntheticEncoder(train_gen.dim, seed))
        self.ckpt = work / "model.ckpt"
        save_checkpoint(self.ckpt, result.checkpoint)
        eval_gen = GenConfig(**{**shared, "num_samples": self.num_samples}, seed=seed + EVAL_SEED_OFFSET)
        self.data = generate_fixtures(eval_gen, work / "data")

    def cli_args(self, out: Path) -> list[str]:
        return ["eval", "--ckpt", str(self.ckpt), "--data", str(self.data), "--report", str(out / "report.json")]

    def check(self, sessions: list[dict]) -> tuple[dict, dict]:
        first = Path(sessions[0]["out"]) / "report.json"
        report = json.loads(first.read_text())
        annotations = load_annotations(self.data / ANNOTATIONS_NAME)
        records = []
        for row, rec in zip(report["samples"], annotations):
            labels = np.zeros(len(row["pred_scores"]))
            labels[rec.action_labels] = 1.0
            records.append(
                EvalRecord(
                    sample_id=row["id"],
                    gt_bbox=np.asarray(rec.gt_bbox),
                    pred_bbox=np.asarray(row["pred_bbox"]),
                    gt_labels=labels,
                    pred_scores=np.asarray(row["pred_scores"]),
                )
            )
        ids_match = [r.sample_id for r in records] == [a.video_id for a in annotations]
        digests = {sha256_file(Path(s["out"]) / "report.json") for s in sessions}
        checks = {
            "num_samples": report["num_samples"] == self.num_samples == len(report["samples"]) and ids_match,
            "map_matches_oracle": abs(report["map"] - multilabel_map_oracle(records)) <= ORACLE_TOL,
            "auroc_matches_oracle": abs(report["auroc"] - auroc_oracle(records)) <= ORACLE_TOL,
        }
        return checks, {"report_sha256": sha256_file(first), "sessions_agree": len(digests) == 1}


class GradcheckDesk:
    """`refscan gradcheck` at GRADCHECK_CONFIG; one item = one loss evaluation."""

    name = "gradcheck-desk"

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.seed = seed
        config = TrainConfig(**{**GRADCHECK_CONFIG.to_dict(), **sizes.gradcheck}).validate()
        self.num_scalars = init_model_params(config, seed=seed).num_scalars()
        self.extra = []
        if sizes.gradcheck:
            path = work / "gradcheck.json"
            path.write_text(json.dumps(config.to_dict()))
            self.extra = ["--config", str(path)]

    def cli_args(self, out: Path) -> list[str]:
        return ["gradcheck", "--seed", str(self.seed), "--tol", repr(GRADCHECK_TOL), *self.extra]

    def check(self, sessions: list[dict]) -> tuple[dict, dict]:
        passed = covered = True
        for s in sessions:
            report = s["gradcheck"]
            passed &= not report["aborted"] and report["max_rel_err"] <= GRADCHECK_TOL
            covered &= sum(r["checked"] + r["skipped"] for r in report["rows"]) == self.num_scalars
        digests = [rows_digest(s["gradcheck"]["rows"]) for s in sessions]
        checks = {"passes_at_1e-4": passed, "checked_plus_skipped_is_num_scalars": covered}
        over = [r for r in sessions[0]["gradcheck"]["rows"] if r["max_rel_err"] > GRADCHECK_TOL]
        outputs = {"gradcheck_rows_sha256": digests[0], "sessions_agree": len(set(digests)) == 1}
        if over:
            outputs["rows_over_tolerance"] = over
        return checks, outputs


WORKLOADS = {w.name: w for w in (TrainDesk, EvalFresh, GradcheckDesk)}
