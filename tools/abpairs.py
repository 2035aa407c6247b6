"""Run the benchmark on two checkouts in alternating pairs and summarise it.

    python3 tools/abpairs.py PARENT CHANGE --workload eval-fresh --pairs 10 --seed 900

PARENT and CHANGE are checkouts of the repository (a clone of the parent
commit beside the working tree, say). Pair i runs each checkout's
``perfbench/run.py --trace 0`` once at seed ``--seed`` + i, for the
``run_seconds`` of PARENT's ``BENCHMARK.json`` (CHANGE's must be the same),
and PARENT runs first in even pairs and CHANGE first in odd ones, so drift
of the host within a pair falls on both sides alike. For each end-to-end
metric it prints each side's median [q1, q3] over the pairs (inclusive
quartiles) and in how many pairs CHANGE read lower; a tie counts for neither.
A run that is not correct or fails items is reported and stops the tool.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def schedule(pairs: int, first_seed: int) -> list[tuple[int, tuple[int, int]]]:
    """Per pair, its seed and the order in which the sides run, as indices
    into ``SIDES``: parent first in even pairs, change first in odd ones."""
    return [(first_seed + i, (0, 1) if i % 2 == 0 else (1, 0)) for i in range(pairs)]


def run_seconds(parent: Path, change: Path) -> float:
    """The benchmark's run length, which both checkouts must declare alike."""
    seconds = [json.loads((c / "BENCHMARK.json").read_text())["run_seconds"] for c in (parent, change)]
    if seconds[0] != seconds[1]:
        raise RuntimeError(f"run_seconds is {seconds[0]} in {parent} but {seconds[1]} in {change}")
    return seconds[0]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The ``metrics`` of one untraced run of ``checkout``'s benchmark."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: seed {seed} run not correct or failed items: {result}")
    return result["metrics"]


def run_pairs(checkouts, workload: str, pairs: int, first_seed: int, seconds: float, run=run_bench) -> list[list[dict]]:
    """Per side, the metrics of its run in each pair, in pair order."""
    runs: list[list[dict]] = [[], []]
    for seed, order in schedule(pairs, first_seed):
        for side in order:
            runs[side].append(run(checkouts[side], workload, seed, seconds))
            print(f"seed {seed} {SIDES[side]}: " + json.dumps(runs[side][-1]), file=sys.stderr, flush=True)
    return runs


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median, first and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def summarise(runs: list[list[dict]]) -> dict:
    """Per metric: its unit, each side's (median, q1, q3), and the number of
    pairs in which the change read strictly lower than the parent."""
    parent, change = runs
    summary = {}
    for name, metric in parent[0].items():
        a = [r[name]["value"] for r in parent]
        b = [r[name]["value"] for r in change]
        summary[name] = {
            "unit": metric["unit"],
            "parent": spread(a),
            "change": spread(b),
            "change_lower": sum(y < x for x, y in zip(a, b)),
        }
    return summary


def format_summary(summary: dict, pairs: int) -> str:
    lines = []
    for name, s in summary.items():
        (pm, pq1, pq3), (cm, cq1, cq3) = s["parent"], s["change"]
        lines.append(
            f"{name} ({s['unit']}): {pm:.4g} [{pq1:.4g}, {pq3:.4g}] -> {cm:.4g} [{cq1:.4g}, {cq3:.4g}]"
            f", {cm / pm - 1:+.1%}, change lower in {s['change_lower']}/{pairs}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=["train-desk", "eval-fresh", "gradcheck-desk"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        seconds = run_seconds(args.parent, args.change)
        runs = run_pairs((args.parent, args.change), args.workload, args.pairs, args.seed, seconds)
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}, {args.pairs} pairs from seed {args.seed}, parent -> change:")
    print(format_summary(summarise(runs), args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
