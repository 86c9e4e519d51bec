"""Alternating benchmark pairs of two checkouts, summarised per metric.

    python3 tools/pairs.py PARENT CHANGE [--pairs 10] [--seed 0]
        [--workload NAME ...]

For each workload (default: every one in CHANGE's BENCHMARK.json) this
runs BENCHMARK.json's command in PARENT and in CHANGE, N times each,
alternating which side goes first.  Each run gets `--workload NAME
--seed S --seconds T --trace 0`, with T the run_seconds of CHANGE's
BENCHMARK.json, and must print its JSON result as the last line of its
output.  For every end-to-end metric it prints the parent's median and
quartiles, the change's, and the number of pairs in which the change
was better.  A gain is "claimable" when the change
wins at least nine in ten pairs (ties count for neither side) and the
medians differ, in the better direction, by more than the parent's
interquartile range.  Each metric also gets a no-regression verdict
from its BENCHMARK.json bound: "worse" when the change's median is
worse than the parent's by more than bound times the parent's median,
else "unresolved" when the parent's interquartile range is wider than
that, unless every change run beats every parent run, else "ok".

Exits 1 as soon as a run fails or reports "correct": false.  Stdlib
only; it is a measurement tool and not part of the test suite.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values):
    """(q1, median, q3) of values; the quartiles of one value are itself."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def summarize(parent, change, better):
    """Pairwise summary of one metric: parent[i] and change[i] are pair
    i's readings, and better is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of parent and change runs")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    shift = sign * (cq[1] - pq[1])
    return {
        "pairs": len(parent),
        "parent": pq,
        "change": cq,
        "wins": wins,
        "claimable": 10 * wins >= 9 * len(parent) and shift > pq[2] - pq[0],
    }


def verdict(parent, change, better, bound):
    """"worse", "unresolved" or "ok" for one metric against its bound, a
    fraction of the parent's median; see the module docstring."""
    sign = 1 if better == "higher" else -1
    (p1, pm, p3), cm = quartiles(parent), quartiles(change)[1]
    margin = bound * abs(pm)
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if sign * (cm - pm) < -margin:
        return "worse"
    if p3 - p1 > margin and not beats_all:
        return "unresolved"
    return "ok"


def run_once(checkout, command, workload, seed, seconds):
    """The metrics dict of one benchmark run in checkout."""
    args = [*command, "--workload", workload, "--seed", str(seed)]
    args += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"{checkout}: {workload} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"{checkout}: {workload} reported correct: false: {proc.stderr}")
    return {k: m["value"] for k, m in result["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(
                    run_once(sides[side], bench["command"], workload, args.seed, seconds)
                )
            print(f"{workload}: pair {i + 1} of {args.pairs} done", file=sys.stderr)
        print(f"{workload} (seed {args.seed}, {seconds:g} s, {args.pairs} pairs)")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [r[name] for r in runs["parent"]]
            change = [r[name] for r in runs["change"]]
            s = summarize(parent, change, metric["better"])
            (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
            print(
                f"  {name:24} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]"
                f"  change {cm:.4g} [{c1:.4g}, {c3:.4g}] {metric['unit']}"
                f"  better in {s['wins']}/{s['pairs']}"
                f"  {verdict(parent, change, metric['better'], metric['bound'])}"
                + ("  claimable" if s["claimable"] else "")
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
