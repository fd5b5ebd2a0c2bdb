"""One program from source text to verdict, through the public API.

A job is what a workload generator hands the verifier: program text,
the cell layout with its observer flags and focus, and the truth label
of the property the verdict is about. `run_job` times the whole path
lang.parse_program -> lang.decompose_accesses -> transform.transform_program
-> backend.analyze_scalar | backend.analyze_loopfree_exact
-> lift.reduce_dual (optional) -> lift.quantify -> lift.check_target
under a wall-clock deadline that the benchmark enforces itself, because
the LIA `Budget` counts work, not time. `run_jobs` runs jobs between
readings of the speed gauge and puts their times at reference speed.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from arrayabs import backend, lang, lift, transform
from arrayabs.lia import Budget

import gauge

# The three ways a job turns into a verdict.
TARGET = "target"  # lift the exit state and check the ensures clause
BOUNDS = "bounds"  # every bounds assertion of the scalar program proven
EXACT = "exact"  # exact input/output relation of a loop-free program

PROVED = "proved"
UNPROVED = "unproved"
DECIDED = "decided"  # exact relation computed
TIMEOUT = "timeout"
ERROR = "error"


@dataclass(frozen=True)
class Job:
    """A generated input. `label` is the truth of the property the
    verdict speaks about (ensures clause, or all bounds assertions);
    None where the verdict is a relation rather than a yes/no."""

    id: str
    kind: str
    source: str
    cfg: transform.IndexConfig
    label: bool | None
    reduce_dual: bool = False


@dataclass
class Outcome:
    verdict: str
    seconds: float  # wall time
    budget_steps: int
    paths: int = 0  # exact jobs: surviving path summaries
    relation: Any = None  # exact jobs: the lia Formula, for the reference
    error: str = ""
    ref_seconds: float = 0.0  # decided: wall time at reference speed (gauge.py); else wall time

    @property
    def decided(self) -> bool:
        return self.verdict in (PROVED, UNPROVED, DECIDED)

    def fingerprint(self) -> tuple:
        """What must repeat exactly when the same job runs again."""
        return (self.verdict, self.budget_steps, self.paths)


class DeadlineExceeded(BaseException):
    """Raised from the interval timer. A BaseException so that no
    `except Exception` on the way up turns a timeout into an error."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@contextmanager
def deadline(seconds: float):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


STEPS = 2_000_000  # the library's default Budget size


def _verify(job: Job, budget: Budget) -> Outcome:
    p = lang.decompose_accesses(lang.parse_program(job.source))
    sp = transform.transform_program(p, job.cfg)
    if job.kind == EXACT:
        r = backend.analyze_loopfree_exact(sp, budget)
        return Outcome(DECIDED, 0.0, 0, paths=len(r.summaries), relation=r.relation)
    res = backend.analyze_scalar(sp)
    if job.kind == BOUNDS:
        proved = res.all_asserts_hold()
    else:
        phi = res.exit.to_formula()
        if job.reduce_dual:
            phi = lift.reduce_dual(phi, sp, budget=budget)
        inv = lift.quantify(phi, sp)
        proved = lift.check_target(inv, sp.target, budget=budget)
    return Outcome(PROVED if proved else UNPROVED, 0.0, 0)


def run_job(job: Job, deadline_s: float) -> Outcome:
    budget = Budget(STEPS)
    t0 = time.perf_counter()
    try:
        with deadline(deadline_s):
            out = _verify(job, budget)
    except DeadlineExceeded:
        out = Outcome(TIMEOUT, 0.0, 0)
    except Exception as e:  # a crash is a failed operation, reported by the caller
        out = Outcome(ERROR, 0.0, 0, error=f"{type(e).__name__}: {e}")
    out.seconds = time.perf_counter() - t0
    out.budget_steps = STEPS - budget.left
    return out


def run_jobs(jobs: list[Job], deadline_s: float) -> list[Outcome]:
    """Each job between two gauge readings. A decided job's time is put
    at reference speed; a timed-out job stands at its wall time, the
    deadline plus the overshoot, since the deadline is a wall-clock
    bound."""
    outs = []
    g0 = gauge.measure()
    for job in jobs:
        out = run_job(job, deadline_s)
        g1 = gauge.measure()
        out.ref_seconds = gauge.at_ref(out.seconds, g0, g1) if out.decided else out.seconds
        outs.append(out)
        g0 = g1
    return outs
