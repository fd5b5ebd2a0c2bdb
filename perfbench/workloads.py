"""Workload generators: the benchmark seed in, a list of jobs out.

Each workload stresses a different layer, so that a change to one layer
has a workload that exercises it and one that bypasses it:

- paper-corpus: the paper's examples, hand-configured. The time splits
  between the analysis and the target check; LIA sees a few large
  queries.
- wide-bounds: copy/init chains over k arrays with bounds checks. The
  time is octagon closure and Karr row reduction; LIA never runs. The
  variable count 3 + 2k is the input property that packing and
  incremental closure depend on, so every pass walks the same k ladder.
- loopfree-exact: random loop-free programs through the exact analysis.
  The time is LIA, as many small satisfiability and projection calls.

A run repeats whole passes over its job list, so every program weighs
the same in every run and the fractions repeat exactly. The pass count
comes from --seconds and a nominal pass time fixed here, not from the
clock, so that the sample count, and with it the percentile that
verdict_tail_s reports, is the same on every machine and every commit.

The deadline of each workload sits in a gap of its time distribution,
as measured over the speed swings of the shared 2-core x86-64 VM it was
tuned on (Python 3.11), so that which job times out does not depend on
machine noise:

- paper-corpus, 3 s: decided jobs took at most 1.6 s; sorted-dual
  needs about 124 s.
- wide-bounds, 10 s: every job decides, the slowest in 1-2 s.
- loopfree-exact, 1.35 s: decided jobs take at most about 0.75 s at
  reference speed (gauge.py), which the usual slow state stretches to
  about 1.2 s; the fastest of the rest (lf23) takes about 1.65 s in the
  fast state, and five run past 4 s.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from arrayabs import lang, transform
from arrayabs.lia import parse_formula
from arrayabs.oracle import random_loopfree_program

from pipeline import BOUNDS, EXACT, TARGET, Job

CORPUS = Path(__file__).resolve().parent / "corpus"


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Job]]
    deadline_s: float
    pass_s: float  # nominal time of one pass over the decided jobs; sets the pass count


# ------------------------------------------------------------ paper-corpus


def corpus_entries() -> list[dict]:
    return json.loads((CORPUS / "corpus.json").read_text())["entries"]


def entry_source(entry: dict) -> str:
    return (CORPUS / entry["program"]).read_text() + f"ensures {entry['ensures']};\n"


def entry_config(entry: dict) -> transform.IndexConfig:
    arrays = {
        name: transform.ArrayCells(spec["count"], ordered=spec.get("ordered", False))
        for name, spec in entry["cells"].items()
    }
    flags = tuple(
        transform.ObsFlag(site, name, lang.parse_condition(pred))
        for site, name, pred in entry.get("flags", ())
    )
    focus = entry.get("focus")
    return transform.IndexConfig(
        arrays=arrays,
        focus=parse_formula(focus) if focus else None,
        observers=transform.ObserverSpec(flags) if flags else None,
    )


def paper_corpus(seed: int) -> list[Job]:
    """Every corpus entry once; the seed sets the order."""
    jobs = [
        Job(e["name"], TARGET, entry_source(e), entry_config(e), e["label"], e.get("reduce_dual", False))
        for e in corpus_entries()
    ]
    random.Random(seed).shuffle(jobs)
    return jobs


# ------------------------------------------------------------- wide-bounds

WIDE_K = (3, 5, 7, 9)  # arrays per program: 9 to 21 scalar variables


def wide_source(rng: random.Random, k: int, off_by_one: bool) -> str:
    """k loops over arrays a0..a<k-1>: even loops fill their array with a
    constant, odd loops copy an earlier array into theirs. The shape is
    fixed and the seed picks constants and copy sources, because the
    shape sets the analysis cost. With off_by_one the last loop runs to
    i <= n, so its access at i == n is out of bounds; the fault sits last
    so that the analysis does the same work as for the valid twin."""
    lines = ["proc wide(n: int) {"]
    lines += [f"  array a{j}[n]: int;" for j in range(k)]
    lines += ["  var i: int;", "  var r: int;"]
    for j in range(k):
        cmp = "<=" if off_by_one and j == k - 1 else "<"
        lines += ["  i = 0;", f"  while (i {cmp} n) {{"]
        if j % 2 == 0:
            lines.append(f"    a{j}[i] = {rng.randint(-3, 3)};")
        else:
            lines += [f"    r = a{rng.randrange(j)}[i];", f"    a{j}[i] = r;"]
        lines += ["    i = i + 1;", "  }"]
    lines.append("}")
    return "\n".join(lines) + "\n"


def wide_bounds(seed: int) -> list[Job]:
    """Per k, a valid program and its off-by-one twin: half the
    properties are false, and every pass walks the same k ladder."""
    jobs = []
    for k in WIDE_K:
        cfg = transform.IndexConfig(
            arrays={f"a{j}": transform.ArrayCells(1) for j in range(k)},
            bounds_checks=True,
        )
        for off in (False, True):
            src = wide_source(random.Random(seed * 100 + k), k, off)
            jobs.append(Job(f"k{k}{'-off' if off else ''}", BOUNDS, src, cfg, not off))
    random.Random(seed).shuffle(jobs)
    return jobs


# ---------------------------------------------------------- loopfree-exact

LOOPFREE_SEEDS = range(40)  # generator seeds of the fixed pool


def loopfree_exact(seed: int) -> list[Job]:
    """The fixed pool of generator draws, in an order set by the seed.

    A fixed pool keeps the deadline inside a gap that was measured on
    exactly these programs: on fresh draws the time distribution is
    continuous from 1 ms to over 45 s, so some draw would always sit
    near the deadline and decided_frac would not repeat. Each program
    keeps the cell budget the generator gives it, one cell per access.
    """
    jobs = []
    for g in LOOPFREE_SEEDS:
        p, cfg = random_loopfree_program(random.Random(g))
        jobs.append(Job(f"lf{g}", EXACT, lang.to_source(p), cfg, None))
    random.Random(seed).shuffle(jobs)
    return jobs


# why each workload exists is stated in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-corpus", paper_corpus, deadline_s=3.0, pass_s=4.0),
        Workload("wide-bounds", wide_bounds, deadline_s=10.0, pass_s=5.0),
        Workload("loopfree-exact", loopfree_exact, deadline_s=1.35, pass_s=6.0),
    )
}
