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


def metrics(setup_s: float, wall_s: float, report: str = "r0", load: float = 0.5) -> dict:
    """A stand-in run: its metrics, and the outputs and host state of its details line."""
    return {
        "metrics": {"setup_s": {"value": setup_s, "unit": "s"}, "wall_s": {"value": wall_s, "unit": "s"}},
        "outputs": {"report_sha256": report, "sessions_agree": True},
        "host": {"loadavg_1m": load, "nproc": 2},
    }


def test_pairs_alternate_the_side_that_runs_first_and_step_the_seed():
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append((checkout, seed))
        return metrics(seed / 1000, 1.0)

    runs = abpairs.run_pairs(("P", "C"), "eval-fresh", 4, 900, 1.0, run=run)
    assert calls == [("P", 900), ("C", 900), ("C", 901), ("P", 901),
                     ("P", 902), ("C", 902), ("C", 903), ("P", 903)]
    # each side's runs are kept in pair order, whichever side ran first
    assert [r["metrics"]["setup_s"]["value"] for r in runs[0]] == [0.9, 0.901, 0.902, 0.903]
    assert [r["metrics"]["setup_s"]["value"] for r in runs[1]] == [0.9, 0.901, 0.902, 0.903]


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


def verdicts(parent: list[float], change: list[float], bound: float = 0.1) -> str:
    """The verdict text on ``wall_s`` for stand-in runs with these values."""
    runs = [[metrics(1.0, v) for v in parent], [metrics(1.0, v) for v in change]]
    return abpairs.format_verdicts(abpairs.summarise(runs), len(parent), {"wall_s": bound})


STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]  # q1 0.99, q3 1.01: spread 2%


def test_verdict_gain_needs_nine_of_ten_lower_and_a_gap_beyond_the_spread():
    faster = [v - 0.05 for v in STEADY]
    assert verdicts(STEADY, faster) == "wall_s: gain (bound 10%, parent spread 2.0%)"
    # still lower in 9 of 10 pairs
    assert verdicts(STEADY, faster[:-1] + [1.5]).startswith("wall_s: gain")
    # lower in 8 of 10 pairs only
    assert verdicts(STEADY, faster[:-2] + [1.5, 1.5]).startswith("wall_s: within bound")
    # lower in every pair, but by less than the parent's spread
    assert verdicts(STEADY, [v - 0.01 for v in STEADY]).startswith("wall_s: within bound")


def test_verdict_worse_past_the_bound_and_within_it():
    assert verdicts(STEADY, [v * 1.15 for v in STEADY]).startswith("wall_s: worse")
    assert verdicts(STEADY, [v * 1.05 for v in STEADY]).startswith("wall_s: within bound")


def test_verdict_unresolved_where_the_parent_spreads_wider_than_the_bound():
    wide = [0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0, 0.75, 1.25]
    assert verdicts(wide, wide) == "wall_s: unresolved (bound 10%, parent spread 35.0%)"
    assert verdicts(wide, [v * 1.2 for v in wide]).startswith("wall_s: worse")


def test_verdicts_cover_the_bounded_metrics_only():
    runs = [[metrics(0.3, 1.0)] * 2, [metrics(0.3, 1.0)] * 2]
    assert abpairs.format_verdicts(abpairs.summarise(runs), 2, {"wall_s": 0.25}).splitlines() == [
        "wall_s: within bound (bound 25%, parent spread 0.0%)"]


def test_same_bits_counts_the_pairs_whose_fingerprints_match():
    parent = [metrics(1.0, 1.0, report=f"r{i}") for i in range(4)]
    assert abpairs.format_same_bits([parent, parent]) == "report_sha256: change equals parent in 4/4 pairs"
    # one pair's report differs, and a seed's fingerprint is compared with its own seed only
    change = [metrics(1.0, 1.0, report=r) for r in ("r0", "rX", "r2", "r3")]
    assert abpairs.format_same_bits([parent, change]) == "report_sha256: change equals parent in 3/4 pairs"
    assert abpairs.format_same_bits([parent, parent[::-1]]).endswith("in 0/4 pairs")


def test_run_bench_keeps_the_outputs_of_the_details_line(tmp_path):
    root = tmp_path / "checkout"
    (root / "perfbench").mkdir(parents=True)
    details = {
        "workload": "eval-fresh",
        "outputs": {"report_sha256": "abc", "sessions_agree": True},
        "environment": {"nproc": 2, "cpu_count": 4, "loadavg_1m": 1.25, "python": "3.11.7"},
    }
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics(0.5, 1.0)["metrics"]}
    lines = ["noise", json.dumps(details), json.dumps(result)]
    (root / "perfbench" / "run.py").write_text(f"print({chr(10).join(lines)!r})\n")
    run = abpairs.run_bench(root, "eval-fresh", 1, 1.0)
    assert run == {"metrics": result["metrics"], "outputs": details["outputs"], "host": {"loadavg_1m": 1.25, "nproc": 2}}


def test_each_run_and_side_shows_the_host_state(capsys):
    loads = iter([0.25, 1.5, 2.0, 0.75])

    def run(checkout, workload, seed, seconds):
        return metrics(1.0, 1.0, load=next(loads))

    runs = abpairs.run_pairs(("P", "C"), "eval-fresh", 2, 900, 1.0, run=run)
    records = capsys.readouterr().err.splitlines()
    # parent, change, then change first in the second pair
    assert [json.loads(line.split(": ", 1)[1])["host"]["loadavg_1m"] for line in records] == [0.25, 1.5, 2.0, 0.75]
    assert abpairs.format_hosts(runs) == (
        "parent host: loadavg_1m 0.25 to 0.75, nproc 2 to 2\n"
        "change host: loadavg_1m 1.5 to 2, nproc 2 to 2"
    )


def test_bounds_are_read_from_the_benchmark_file():
    limits = abpairs.bounds(Path(__file__).parents[1])
    assert set(limits) == {"setup_s", "item_ms_p90", "wall_s", "peak_rss_mb"}
    assert all(0 < b < 1 for b in limits.values())


def test_one_pair_is_its_own_spread():
    assert abpairs.spread([0.5]) == (0.5, 0.5, 0.5)


def checkout(path: Path, run_seconds: float) -> Path:
    """A directory that declares ``run_seconds`` and has no benchmark to run."""
    path.mkdir()
    (path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": run_seconds, "end_to_end": []}))
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
