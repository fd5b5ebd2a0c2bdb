"""Benchmark of the array verifier, from program text to verdict.

    python3 perfbench/run.py --workload paper-corpus --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout and measures the `arrayabs` package in
its `src/`. One process, one thread, one client in a closed loop: the
next program starts when the previous verdict is in.

With --trace 0 the run makes at least three passes over the workload's
job list; the last one runs in a child process under another
PYTHONHASHSEED. A job that ran into the deadline is not run again: the
deadline gap fixes its verdict and the deadline its time. Times are in
reference seconds: every job run sits between two readings of a fixed
speed gauge (gauge.py), because the machine the benchmark was tuned on
(a shared 2-core VM) switches between a fast state and states in which
the gauge takes up to 2.4x as long, every second or so, for minutes at
a time, and the gauge's time moves with the jobs'. Each job's time is the median of its
decided runs at reference speed. The timing metrics are over one sample
per job and pass, each at its job's time. Set-up time is the median of
probes spread over the run, each between two gauge readings and put at
reference speed the same way.

With --trace 1 the run makes one untraced pass and the child pass, then
runs every job twice in a row, untraced and traced, and reports
per-layer metrics from the spans of the traced runs (see spans.py),
plus the tracing overhead from the pairs.

Either way the run checks every verdict against an interpreter
reference outside the timed region, checks that verdicts and LIA work
counts repeat exactly within the process and under a second
PYTHONHASHSEED, and prints one JSON object as the last line of
standard output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # before each pass made in this process
MIN_PASSES = 3


def _die(msg: str, code: int) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


if not (SRC / "arrayabs" / "__init__.py").is_file():
    _die(f"no arrayabs package under {SRC}; run from a checkout of the repository", 2)
sys.path.insert(0, str(SRC))

import gauge  # noqa: E402
import pipeline  # noqa: E402
import reference  # noqa: E402
from pipeline import BOUNDS, DECIDED, ERROR, EXACT, PROVED, TIMEOUT, Job, Outcome  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def measure_setup(workload: str, seed: int) -> list[float]:
    """Times from process start to the job list being built, in
    SETUP_PROBES fresh interpreter processes (imports happen once per
    process), each at reference speed. The clock stops when the child
    reports ready on its pipe; a wait with a timeout would poll and round
    the time up to 50 ms steps."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        g0 = gauge.measure()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            try:
                with pipeline.deadline(60):
                    line = child.stdout.readline()
            except pipeline.DeadlineExceeded:
                child.kill()
                _die("setup probe did not report ready within 60 s", 2)
            wall = time.perf_counter() - t0
            child.wait()
        times.append(gauge.at_ref(wall, g0, gauge.measure()))
        if line.strip() != "ready" or child.returncode != 0:
            _die("setup probe failed", 2)
    return times


def run_passes(args, jobs: list[Job], wl: Workload, passes: int) -> tuple[list[list[Outcome]], float]:
    """Per job, its outcomes in pass order, and the set-up time: the
    median of the set-up probes made before each pass, so that they
    spread over the run. The last pass runs in a child process under
    another PYTHONHASHSEED, so that it also serves the determinism check.
    Timed-out jobs run once."""
    runs: list[list[Outcome]] = [[] for _ in jobs]
    setup = []
    for p in range(passes - 1):
        setup += measure_setup(args.workload, args.seed)
        ids = [i for i in range(len(jobs)) if p == 0 or runs[i][0].verdict != TIMEOUT]
        for i, out in zip(ids, pipeline.run_jobs([jobs[i] for i in ids], wl.deadline_s)):
            runs[i].append(out)
    ids = [i for i, outs in enumerate(runs) if outs[0].verdict != TIMEOUT]
    for i, out in zip(ids, replay_in_child(args, ids)):
        runs[i].append(out)
    return runs, statistics.median(setup)


def job_time(outs: list[Outcome]) -> float:
    """Median reference time of the decided runs. A job that timed out
    ran once and stands at its wall time, the deadline plus the
    overshoot; a later run of a decided job that hit the deadline is
    machine noise and is left out."""
    decided = [o for o in outs if o.decided]
    if not decided:
        return outs[0].ref_seconds
    return statistics.median(o.ref_seconds for o in decided)


def replay_in_child(args, ids: list[int]) -> list[Outcome]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--replay", ",".join(map(str, ids)),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    child = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170, cwd=ROOT)
    if child.returncode != 0:
        _die(f"replay process failed:\n{child.stderr}", 3)
    return [Outcome(*row) for row in json.loads(child.stdout.strip().splitlines()[-1])]


def replay(jobs: list[Job], ids: list[int], wl: Workload) -> None:
    """Child side of run_passes: verdict, times, steps and paths per job."""
    outs = pipeline.run_jobs([jobs[i] for i in ids], wl.deadline_s)
    print(json.dumps([[o.verdict, o.seconds, o.budget_steps, o.paths, None, o.error, o.ref_seconds] for o in outs]))


def run_traced(jobs: list[Job], deadline_s: float, tracer: Tracer) -> tuple[list[Outcome], list[Outcome]]:
    """Each job once untraced and at once again traced, so that both runs
    see the same machine speed and their ratio measures the tracing cost."""
    plain, traced = [], []
    for i, job in enumerate(jobs):
        plain.append(pipeline.run_job(job, deadline_s))
        tracer.install()
        try:
            with tracer.job(i):
                traced.append(pipeline.run_job(job, deadline_s))
        finally:
            tracer.uninstall()
    return plain, traced


# ------------------------------------------------------------ correctness


def reference_check(jobs: list[Job], first: list[Outcome]) -> list[bool]:
    """Per job, whether the verdict is contradicted by the reference: a
    proof of a false label, or an exact relation that excludes a
    reachable final state. Bounds labels are re-derived here from the
    interpreter; corpus labels are confirmed by test_corpus_labels.py."""
    bad = []
    for job, out in zip(jobs, first):
        if job.kind == BOUNDS and reference.bounds_safe(job.source) != job.label:
            _die(f"{job.id}: generated label {job.label} disagrees with the interpreter", 4)
        if job.kind == EXACT:
            bad.append(out.verdict == DECIDED and reference.relation_violations(job.source, job.cfg, out.relation) > 0)
        else:
            bad.append(out.verdict == PROVED and job.label is False)
    return bad


def determinism_check(jobs: list[Job], runs: list[list[Outcome]]) -> int:
    """Verdict, LIA budget steps and path count of every decided job must
    repeat across its runs: in this process and in the child under a
    different PYTHONHASHSEED. A deadline hit on a later run of a job that
    decided is machine noise, not a verdict, and is left out. Returns the
    number of comparisons made."""
    compared = 0
    for job, outs in zip(jobs, runs):
        fps = {o.fingerprint() for o in outs if o.decided}
        if len(fps) > 1:
            _die(f"nondeterminism in {job.id}: (verdict, budget steps, paths) = {sorted(fps)}", 3)
        compared += max(0, sum(o.decided for o in outs) - 1)
    return compared


# ---------------------------------------------------------------- metrics


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples above it, and that
    percentile. With 10 samples or fewer, the maximum."""
    xs = sorted(times)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(jobs: list[Job], runs: list[list[Outcome]], passes: int, bad: list[bool], setup_s: float) -> tuple[dict, dict]:
    """One sample per job and pass, each at the job's time (job_time)."""
    best = [job_time(outs) for outs in runs]
    verdicts = [outs[0] for outs in runs]
    samples = [t for t in best for _ in range(passes)]
    decided = sum(o.decided for o in verdicts)
    if jobs[0].kind == EXACT:
        # the relation is the property: proved when the reference confirms it
        graded = list(range(len(jobs)))
        proved = sum(verdicts[i].verdict == DECIDED and not bad[i] for i in graded)
    else:
        graded = [i for i, job in enumerate(jobs) if job.label]
        proved = sum(verdicts[i].verdict == PROVED for i in graded)
    tail_s, pct = tail(samples)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdict_p50_s": (statistics.median(samples), "s"),
        "verdict_tail_s": (tail_s, "s"),
        "programs_per_s": (decided / sum(best), "1/s"),
        "decided_frac": (decided / len(jobs), "fraction"),
        "proved_frac": (proved / len(graded), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"samples": len(samples), "tail_percentile": round(pct, 1)}
    return metrics, info


def per_layer(tracer: Tracer, traced: list[Outcome], untraced: list[Outcome]) -> dict:
    st = tracer.self_times()

    def secs(name):
        return st[name][0] if name in st else 0.0

    def calls(name):
        return st[name][1] if name in st else 0

    def mean(name):
        s, c = tracer.sizes.get(name, (0.0, 0))
        return s / c if c else 0.0

    # overhead on jobs decided both ways, so deadline-capped times do not dilute it
    both = [(a.seconds, b.seconds) for a, b in zip(traced, untraced) if a.decided and b.decided]
    t_on, t_off = sum(a for a, _ in both), sum(b for _, b in both)
    sat_calls = calls("lia.is_sat")
    return {
        "lang.parse_s": (secs("lang.parse"), "s"),
        "lang.decompose_s": (secs("lang.decompose"), "s"),
        "lang.stmts": (mean("lang.stmts"), "count"),
        "transform.s": (secs("transform"), "s"),
        "transform.scalar_vars": (mean("transform.scalar_vars"), "count"),
        "transform.flags": (mean("transform.flags"), "count"),
        "backend.abstract.s": (secs("backend.abstract"), "s"),
        "backend.abstract.exit_parts": (mean("backend.abstract.exit_parts"), "count"),
        "backend.octagon.close_calls": (calls("backend.octagon.close"), "count"),
        "backend.octagon.close_s": (secs("backend.octagon.close"), "s"),
        "backend.octagon.max_vars": (tracer.peaks.get("backend.octagon.max_vars", 0), "count"),
        "backend.affine.calls": (calls("backend.affine"), "count"),
        "backend.affine.s": (secs("backend.affine"), "s"),
        "backend.product.reduce_calls": (calls("backend.product.reduce"), "count"),
        "backend.product.reduce_s": (secs("backend.product.reduce"), "s"),
        "backend.exact.s": (secs("backend.exact"), "s"),
        "backend.exact.paths": (mean("backend.exact.paths"), "count"),
        "lift.quantify_s": (secs("lift.quantify"), "s"),
        "lift.reduce_dual_s": (secs("lift.reduce_dual"), "s"),
        "lift.target_s": (secs("lift.target"), "s"),
        "lift.invariant_atoms": (mean("lift.invariant_atoms"), "count"),
        "lia.is_sat_calls": (sat_calls, "count"),
        "lia.is_sat_s": (secs("lia.is_sat"), "s"),
        "lia.is_sat_unsat_frac": (tracer.unsat / sat_calls if sat_calls else 0.0, "fraction"),
        "lia.qe_calls": (calls("lia.qe"), "count"),
        "lia.qe_s": (secs("lia.qe"), "s"),
        "lia.budget_steps": (sum(o.budget_steps for o in traced), "count"),
        "trace.job_s": (sum(o.seconds for o in traced), "s"),
        "trace.unattributed_s": (secs("job"), "s"),
        "trace.overhead_frac": (t_on / t_off - 1 if t_off else 0.0, "fraction"),
    }


SPLIT = {
    "lang+transform": ("lang.parse_s", "lang.decompose_s", "transform.s"),
    "backend.abstract": ("backend.abstract.s",),
    "backend.octagon": ("backend.octagon.close_s",),
    "backend.affine": ("backend.affine.s",),
    "backend.product": ("backend.product.reduce_s",),
    "backend.exact": ("backend.exact.s",),
    "lift": ("lift.quantify_s", "lift.reduce_dual_s", "lift.target_s"),
    "lia": ("lia.is_sat_s", "lia.qe_s"),
    "unattributed": ("trace.unattributed_s",),
}


def describe_split(metrics: dict, tracer: Tracer) -> list[str]:
    """Shares of traced job time: self time per layer, and the inclusive
    time of the stage calls (a stage includes the layers it calls)."""
    total = metrics["trace.job_s"][0] or 1.0
    self_line = "  ".join(f"{g} {100 * sum(metrics[n][0] for n in names) / total:.1f}%" for g, names in SPLIT.items())
    incl = tracer.inclusive()
    stages = ("backend.abstract", "backend.exact", "lift.reduce_dual", "lift.target", "lia.is_sat")
    incl_line = "  ".join(f"{n} {100 * incl.get(n, 0.0) / total:.1f}%" for n in stages)
    return [f"self-time split: {self_line}", f"inclusive: {incl_line}"]


# ------------------------------------------------------------------- main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--replay", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    jobs = wl.build(args.seed)
    if args.probe_setup:
        print("ready", flush=True)
        return
    if args.replay is not None:
        replay(jobs, [int(i) for i in args.replay.split(",") if i], wl)
        return

    tracer = Tracer() if args.trace else None
    passes = 2 if tracer else max(MIN_PASSES, math.ceil(args.seconds / wl.pass_s))
    runs, setup_s = run_passes(args, jobs, wl, passes)
    plain, traced = run_traced(jobs, wl.deadline_s, tracer) if tracer else ([], [])

    first = [outs[0] for outs in runs]
    bad = reference_check(jobs, first)
    compared = determinism_check(jobs, [outs + ([plain[i], traced[i]] if tracer else []) for i, outs in enumerate(runs)])
    metrics, info = end_to_end(jobs, runs, passes, bad, setup_s)
    attempted = sum(len(outs) for outs in runs) + len(plain) + len(traced)
    unsound = sum(len(outs) for outs, b in zip(runs, bad) if b)
    errors = sum(o.verdict == ERROR for o in [x for outs in runs for x in outs] + plain + traced)

    print(f"workload {args.workload} seed {args.seed}: {passes} passes over {len(jobs)} programs, "
          f"deadline {wl.deadline_s} s, {compared} repeat comparisons")
    for job, outs in zip(jobs, runs):
        o = outs[0]
        print(f"  {job.id:14s} {o.verdict:9s} {job_time(outs):7.3f} ref s of {len(outs)} runs"
              f"  steps {o.budget_steps}  label {job.label}" + (f"  {o.error}" if o.error else ""))
    print(f"  verdict_tail_s is p{info['tail_percentile']} of {info['samples']} samples; "
          f"unsound_count {unsound}; errors {errors}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:.6g} {unit}")
    if tracer is not None:
        metrics = per_layer(tracer, traced, plain)
        for line in describe_split(metrics, tracer):
            print("  " + line)
        trace_file = ROOT / ".perfbench" / f"trace-{args.workload}.txt"
        tracer.write(trace_file)
        print(f"  spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
    failed = unsound + errors
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
