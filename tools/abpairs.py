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
Then it gives each metric that PARENT's ``BENCHMARK.json`` bounds a verdict,
every metric being better lower and its bound a share of PARENT's median:

- ``gain``: CHANGE read lower in at least 9 of 10 pairs, and its median is
  below PARENT's by more than PARENT's interquartile distance;
- ``worse``: CHANGE's median exceeds PARENT's by more than the bound;
- ``unresolved``: neither, and PARENT's interquartile distance is wider than
  the bound, so a change within the bound cannot be told from noise;
- ``within bound``: otherwise.

Each run's stderr record carries the host state its details line recorded
(``HOST``: the 1-minute load average as the run began, and the usable CPUs),
and under the summary each side's range of it is printed, so that a set that
leans with the host can be told from one that leans with the change. Last,
for each ``*_sha256`` fingerprint in the details line of PARENT's runs (the
checkpoint, report or gradcheck rows), it prints in how many pairs CHANGE's
value equals PARENT's at the same seed. A run that is not correct
or fails items is reported and stops the tool.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
HOST = ("loadavg_1m", "nproc")  # the host state kept from each run's details line


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


def bounds(checkout: Path) -> dict[str, float]:
    """Each end-to-end metric's bound, as a share of the parent's median."""
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in benchmark["end_to_end"]}


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The ``metrics`` of one untraced run of ``checkout``'s benchmark, and
    the ``outputs`` and the ``HOST`` values of the ``environment`` of its
    details line, the second-to-last of stdout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout}: seed {seed} run not correct or failed items: {result}")
    host = {key: details["environment"][key] for key in HOST}
    return {"metrics": result["metrics"], "outputs": details["outputs"], "host": host}


def run_pairs(checkouts, workload: str, pairs: int, first_seed: int, seconds: float, run=run_bench) -> list[list[dict]]:
    """Per side, its run in each pair, in pair order."""
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
    for name, metric in parent[0]["metrics"].items():
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
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


def format_hosts(runs: list[list[dict]]) -> str:
    """Per side, the lowest and highest of each ``HOST`` value over its runs."""
    lines = []
    for side, side_runs in zip(SIDES, runs):
        ranges = [[r["host"][key] for r in side_runs] for key in HOST]
        lines.append(f"{side} host: " + ", ".join(f"{key} {min(v):g} to {max(v):g}" for key, v in zip(HOST, ranges)))
    return "\n".join(lines)


def verdict(s: dict, pairs: int, bound: float) -> str:
    """One metric's verdict from its ``summarise`` entry (see the module doc)."""
    (pm, pq1, pq3), (cm, _, _) = s["parent"], s["change"]
    if 10 * s["change_lower"] >= 9 * pairs and pm - cm > pq3 - pq1:
        return "gain"
    if cm > pm * (1 + bound):
        return "worse"
    if pq3 - pq1 > bound * pm:
        return "unresolved"
    return "within bound"


def format_verdicts(summary: dict, pairs: int, limits: dict[str, float]) -> str:
    lines = []
    for name, s in summary.items():
        if name in limits:
            (pm, pq1, pq3), bound = s["parent"], limits[name]
            lines.append(f"{name}: {verdict(s, pairs, bound)} (bound {bound:.0%}, parent spread {(pq3 - pq1) / pm:.1%})")
    return "\n".join(lines)


def format_same_bits(runs: list[list[dict]]) -> str:
    """Per ``*_sha256`` output of the parent's runs, in how many pairs the
    change's value is the parent's."""
    parent, change = runs
    lines = []
    for key in parent[0]["outputs"]:
        if key.endswith("_sha256"):
            same = sum(c["outputs"].get(key) == p["outputs"][key] for p, c in zip(parent, change))
            lines.append(f"{key}: change equals parent in {same}/{len(parent)} pairs")
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
        limits = bounds(args.parent)
        runs = run_pairs((args.parent, args.change), args.workload, args.pairs, args.seed, seconds)
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}, {args.pairs} pairs from seed {args.seed}, parent -> change:")
    summary = summarise(runs)
    print(format_summary(summary, args.pairs))
    print(format_hosts(runs))
    print(format_verdicts(summary, args.pairs, limits))
    print(format_same_bits(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
