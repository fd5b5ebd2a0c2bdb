"""Alternating pairs of benchmark runs, a parent checkout against a change.

    python3 tools/ab_pairs.py PARENT CHANGE --workload paper-corpus \
        --workload wide-bounds --metric programs_per_s --pairs 10 \
        --seed 0 --seconds 20

Runs `perfbench/run.py --trace 0` from the root of each checkout in
turn, each run in a fresh process. Pair i (from 1) runs the parent
first when i is odd and the change first when i is even, so that a
drift of the machine's speed does not favour one side. The metrics are
read from the JSON object each run prints last, and each one's
direction (higher or lower is better) and bound from `BENCHMARK.json`
of the change. `--workload` may be given more than once: the pairs of
each workload run in turn, in the order given.

For each workload, prints each pair's two values of `--metric` as it
goes. Then, for every end-to-end metric, each side's median and
quartiles, flagged where the change's median is worse than the
parent's by more than the metric's bound, a fraction of the parent's
median. Last, for `--metric`, the number of pairs the change won (ties
count for neither), and whether, over at least ten pairs, the change
wins at least nine in ten by a median that differs from the parent's
by more than the distance between the parent's quartiles: the rule a
claimed gain must meet. So one call can check a claim on one workload
and the bounds on the others.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The metrics of one benchmark run from the checkout at root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"ab_pairs: a run from {root} reports wrong verdicts")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs: list[tuple[float, float]], higher_is_better: bool, bound: float = math.inf) -> dict:
    """Each side's quartiles, the pairs the change won, whether the wins
    and the medians meet the rule for claiming a gain, and whether the
    change's median is worse than the parent's by more than bound, a
    fraction of the parent's median."""
    parent, change = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
    sign = 1 if higher_is_better else -1
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (change[1] - parent[1])
    return {
        "parent": parent,
        "change": change,
        "wins": wins,
        "pairs": len(pairs),
        "claim": len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > parent[2] - parent[0],
        "past_bound": -gain > bound * abs(parent[1]),
    }


def end_to_end(root: Path) -> dict[str, dict]:
    """Each end-to-end metric of `BENCHMARK.json` by name."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def run_pairs(args, workload: str, spec: dict[str, dict]) -> dict[str, list[tuple[float, float]]]:
    """The (parent, change) values of every end-to-end metric, pair by
    pair, on one workload; prints the pairs of `args.metric` as it goes."""
    pairs: dict[str, list[tuple[float, float]]] = {name: [] for name in spec}
    for i in range(1, args.pairs + 1):
        sides = (args.parent, args.change) if i % 2 else (args.change, args.parent)
        first, second = (run_once(root, workload, args.seed, args.seconds) for root in sides)
        parent, change = (first, second) if i % 2 else (second, first)
        for name in spec:
            pairs[name].append((parent[name], change[name]))
        print(f"{workload} pair {i:2d} ({'parent' if i % 2 else 'change'} first): "
              f"parent {parent[args.metric]:.6g}  change {change[args.metric]:.6g}", flush=True)
    return pairs


def report(workload: str, pairs: dict[str, list[tuple[float, float]]], spec: dict[str, dict], metric: str) -> None:
    """The bound table of one workload, then the claim rule on metric."""
    print(f"{workload}:")
    for name, m in spec.items():
        s = summarize(pairs[name], m["better"] == "higher", m["bound"])
        (p1, pm, p3), (c1, cm, c3) = s["parent"], s["change"]
        print(f"  {name}: parent {pm:.6g} ({p1:.6g} .. {p3:.6g})  change {cm:.6g} ({c1:.6g} .. {c3:.6g})"
              + (f"  WORSE PAST BOUND {m['bound']}" if s["past_bound"] else ""))
    higher = spec[metric]["better"] == "higher"
    s = summarize(pairs[metric], higher)
    print(f"  {metric}: change won {s['wins']} of {s['pairs']} pairs ({'higher' if higher else 'lower'} is better); "
          f"gain claimable: {'yes' if s['claim'] else 'no'}", flush=True)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    ap.add_argument("--metric", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    spec = end_to_end(args.change)
    if args.metric not in spec:
        raise SystemExit(f"ab_pairs: BENCHMARK.json names no end-to-end metric {args.metric!r}")
    for workload in args.workload:
        report(workload, run_pairs(args, workload, spec), spec, args.metric)


if __name__ == "__main__":
    main()
