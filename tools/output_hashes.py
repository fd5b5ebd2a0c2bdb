"""Hashes of the verifier's outputs on every benchmark job, so that two
checkouts can be shown to give the same results.

    python3 tools/output_hashes.py --seed 0 --deadline 60

Runs from the root of a checkout, on the `arrayabs` package in its
`src/`, and reads the job lists of `perfbench/` without changing them.
Each job goes the benchmark's way (`perfbench/pipeline.py`), with one
LIA budget per job, and its hash covers:

- the scalar program;
- scalar analysis: the exit formula and the assert verdicts, then for
  an ensures job the pair-reduced invariant (where the job asks for
  it), `render()` of the lifted invariant and the `check_target`
  answer, or for a bounds job whether every assert holds;
- exact analysis: the relation, the path count and the assert verdicts;
- the budget steps the job used (split nodes and LIA steps).

It prints one line per job, `workload job hash` with a timed-out job
as `timeout` and not hashed, then the timed-out job ids and one digest
over the hashed lines.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from arrayabs import backend, lang, lift, transform  # noqa: E402
from arrayabs.lia import Budget  # noqa: E402

import pipeline  # noqa: E402
from pipeline import BOUNDS, EXACT, STEPS, Job  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def outputs(job: Job) -> list[str]:
    """What the job computes, as text, in pipeline order."""
    budget = Budget(STEPS)
    p = lang.decompose_accesses(lang.parse_program(job.source))
    sp = transform.transform_program(p, job.cfg)
    out = [lang.to_source(sp.program)]
    if job.kind == EXACT:
        r = backend.analyze_loopfree_exact(sp, budget)
        out += [str(r.relation), str(len(r.summaries)), repr(r.asserts)]
    else:
        res = backend.analyze_scalar(sp)
        phi = res.exit.to_formula()
        out += [str(phi), repr([(a.line, str(a.formula), a.proven) for a in res.asserts])]
        if job.kind == BOUNDS:
            out.append(str(res.all_asserts_hold()))
        else:
            if job.reduce_dual:
                phi = lift.reduce_dual(phi, sp, budget=budget)
                out.append(str(phi))
            inv = lift.quantify(phi, sp)
            out += [inv.render(), str(lift.check_target(inv, sp.target, budget=budget))]
    out.append(str(STEPS - budget.left))
    return out


def job_hash(job: Job, deadline_s: float) -> str | None:
    """Hex hash of the job's outputs, None past the deadline. A crash is
    an output too: its message is hashed."""
    try:
        with pipeline.deadline(deadline_s):
            parts = outputs(job)
    except pipeline.DeadlineExceeded:
        return None
    except Exception as e:
        parts = [f"{type(e).__name__}: {e}"]
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:16]


def digest(lines: list[str]) -> str:
    """One hash over the `workload job hash` lines of the hashed jobs."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--deadline", type=float, default=60.0, help="seconds per job")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append", help="default: all")
    args = ap.parse_args()
    lines, timed_out = [], []
    for name in args.workload or WORKLOADS:
        for job in WORKLOADS[name].build(args.seed):
            h = job_hash(job, args.deadline)
            if h is None:
                timed_out.append(job.id)
            else:
                lines.append(f"{name} {job.id} {h}")
            print(f"{name} {job.id} {h or 'timeout'}", flush=True)
    print(f"timed out: {' '.join(timed_out) or '-'}")
    print(f"digest {digest(lines)}")


if __name__ == "__main__":
    main()
