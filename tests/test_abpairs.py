"""``tools/abpairs.py`` alternates the two checkouts and summarises their
runs; a stand-in runner takes the place of perfbench, so no benchmark runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location("abpairs", Path(__file__).parents[1] / "tools" / "abpairs.py")
abpairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(abpairs)


def metrics(setup_s: float, wall_s: float) -> dict:
    return {"setup_s": {"value": setup_s, "unit": "s"}, "wall_s": {"value": wall_s, "unit": "s"}}


def test_pairs_alternate_the_side_that_runs_first_and_step_the_seed():
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        return metrics(seed / 1000, 1.0)

    runs = abpairs.run_pairs(("P", "C"), "eval-fresh", 4, 900, 1.0, run=run)
    assert calls == [("P", 900), ("C", 900), ("C", 901), ("P", 901),
                     ("P", 902), ("C", 902), ("C", 903), ("P", 903)]
    # each side's runs are kept in pair order, whichever side ran first
    assert [r["setup_s"]["value"] for r in runs[0]] == [0.9, 0.901, 0.902, 0.903]
    assert [r["setup_s"]["value"] for r in runs[1]] == [0.9, 0.901, 0.902, 0.903]


def test_summary_gives_medians_quartiles_and_strict_wins():
    parent = [metrics(v, 2.0) for v in (0.30, 0.34, 0.32, 0.36, 0.38)]
    change = [metrics(v, w) for v, w in ((0.20, 2.0), (0.40, 1.9), (0.22, 2.1), (0.24, 2.0), (0.26, 2.0))]
    summary = abpairs.summarise([parent, change])
    assert summary["setup_s"]["unit"] == "s"
    assert summary["setup_s"]["parent"] == pytest.approx((0.34, 0.32, 0.36))
    assert summary["setup_s"]["change"] == pytest.approx((0.24, 0.22, 0.26))
    assert summary["setup_s"]["change_lower"] == 4  # the pair at 0.34 -> 0.40 went up
    assert summary["wall_s"]["change_lower"] == 1  # ties count for neither side
    text = abpairs.format_summary(summary, 5)
    assert "setup_s (s): 0.34 [0.32, 0.36] -> 0.24 [0.22, 0.26], -29.4%, change lower in 4/5" in text


def test_one_pair_is_its_own_spread():
    assert abpairs.spread([0.5]) == (0.5, 0.5, 0.5)


def checkout(path: Path, run_seconds: float) -> Path:
    """A directory that declares ``run_seconds`` and has no benchmark to run."""
    path.mkdir()
    (path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": run_seconds}))
    return path


def test_a_failed_run_exits_1_naming_the_checkout(tmp_path, capsys):
    empty = checkout(tmp_path / "empty", 20)
    # no perfbench/run.py here: python exits 2 at once, before any benchmark starts
    assert abpairs.main([str(empty), str(empty), "--workload", "eval-fresh", "--pairs", "1", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {empty}: perfbench exited 2")


def test_both_checkouts_must_declare_one_run_length(tmp_path, capsys):
    parent, change = checkout(tmp_path / "parent", 20), checkout(tmp_path / "change", 10)
    assert abpairs.run_seconds(parent, parent) == 20
    assert abpairs.main([str(parent), str(change), "--workload", "eval-fresh", "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"error: run_seconds is 20 in {parent} but 10 in {change}\n"


def test_a_checkout_without_a_benchmark_file_exits_1(tmp_path, capsys):
    parent = checkout(tmp_path / "parent", 20)
    assert abpairs.main([str(parent), str(tmp_path), "--workload", "eval-fresh", "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
