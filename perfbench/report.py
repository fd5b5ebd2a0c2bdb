"""Every end-to-end metric of every workload, one row per workload.

    python3 perfbench/report.py [--seed 0] [--seconds 20] [--trace 0|1]

Runs perfbench/run.py once per workload, each in its own process, and
prints a table of the metrics with their units, the sample count and
percentile behind verdict_tail_s, and unsound_count: verdicts the
interpreter reference contradicts, which must be 0. Exits non-zero when
any run fails or reports an incorrect verdict.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    rows, ok = [], True
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        run = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        if run.returncode != 0:
            print(f"{name}: run failed\n{run.stderr}", file=sys.stderr)
            ok = False
            continue
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = re.search(r"is (p[\d.]+) of (\d+) samples; unsound_count (\d+)", run.stdout)
        ok &= result["correct"]
        rows.append((name, result, info.groups()))

    header = ["workload"] + [f"{m['name']} [{m['unit']}]" for m in metrics]
    header += [] if args.trace else ["tail pct", "samples", "unsound_count", "correct"]
    table = [header]
    for name, result, (pct, samples, bad) in rows:
        row = [name] + [f"{result['metrics'][m['name']]['value']:.4g}" for m in metrics]
        row += [] if args.trace else [pct, samples, bad, str(result["correct"])]
        table.append(row)
    if args.trace:
        # one metric per line reads better than thirty columns
        for i, m in enumerate(header[1:], 1):
            print(f"{m:38s}" + "".join(f"{r[i]:>16s}" for r in table[1:]))
        print(f"{'':38s}" + "".join(f"{r[0]:>16s}" for r in table[1:]))
    else:
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        for r in table:
            print("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
