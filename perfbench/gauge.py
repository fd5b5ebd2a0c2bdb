"""A fixed pure-Python kernel that measures how fast the machine runs
right now, so that job times can be put at a reference speed.

The shared 2-core x86-64 VM the benchmark was tuned on (Python 3.11)
switches between a fast state and a slow one, in which the kernel takes
about 1.8x as long, every few seconds, and for minutes at a time the
slow state dominates. Jobs slow down with it, by less. A job run
between two kernel readings g0 and g1 is put at reference speed by

    seconds * (REF / g) ** EXPONENT,  g = (g0 + g1) / 2

REF is the kernel's time in the fast state of that machine, so
reference seconds read as fast-state seconds there. EXPONENT was
measured there on each workload (two minutes of its job list): per job,
the median time of its runs between two slow readings over that of its
runs between two fast ones, against the same ratio of the readings, on
a log scale. The median over jobs was 0.84 on paper-corpus and
wide-bounds and 0.9 on loopfree-exact. Process set-up follows the
kernel only over minutes: probe by probe the two barely correlate, but
between two quarter-hours the median of 30 set-up probes moved by 1.46x
and the median reading by 1.36x, so set-up probes are put at reference
speed the same way.

The kernel does what the analyzer spends its time on: exact rational
row reduction, dicts keyed by tuples and frozensets, and many small
short-lived objects. It depends on nothing in `src/`, so a change to the
program cannot change it.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REF = 0.0039  # seconds per measure() in the fast state of the tuning machine
EXPONENT = 0.85


def _kernel() -> int:
    n = 8
    m = [[Fraction((7 * r + 3 * c) % 11 - 5, 1 + (r * c) % 4) for c in range(n + 1)] for r in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    d: dict = {}
    for i in range(1500):
        k = (i % 37, frozenset((i % 5, i % 7)))
        d[k] = d.get(k, 0) + i
    rows = [{"coef": (i, i + 1), "vars": [i % 7] * 3} for i in range(3000)]
    return len(d) + len(rows)


def measure() -> float:
    """The faster of two kernel calls, with the garbage collector off so
    that a collection of the garbage a job left does not land in the
    reading."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return min(times)


def at_ref(seconds: float, g0: float, g1: float) -> float:
    """Wall time `seconds`, measured between readings g0 and g1, at
    reference speed."""
    return seconds * (2 * REF / (g0 + g1)) ** EXPONENT
