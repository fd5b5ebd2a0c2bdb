"""Shared helpers for the test suite.

Brute-force evaluation of formulas over integer boxes, both pointwise
and vectorized over the whole grid, plus small random generators used
by the differential tests.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Mapping, Sequence

import numpy as np

from arrayabs.lia import Formula, Lin, dvd, ge0, land, lnot, lor


def box_points(names: Sequence[str], lo: int, hi: int) -> Iterable[dict[str, int]]:
    for vals in itertools.product(range(lo, hi + 1), repeat=len(names)):
        yield dict(zip(names, vals))


def box_sat(f: Formula, names: Sequence[str], lo: int, hi: int) -> dict[str, int] | None:
    """First satisfying point of f in the box, scanning lexicographically."""
    for env in box_points(names, lo, hi):
        if f.evaluate(env):
            return env
    return None


def grid_eval(f: Formula, grids: Mapping[str, np.ndarray]) -> np.ndarray:
    """Truth table of f over aligned numpy grids, one array per variable."""
    k = f.kind
    if k == "true":
        shape = next(iter(grids.values())).shape if grids else ()
        return np.ones(shape, dtype=bool)
    if k == "false":
        shape = next(iter(grids.values())).shape if grids else ()
        return np.zeros(shape, dtype=bool)
    if k in ("ge", "dvd"):
        acc = np.full_like(next(iter(grids.values())), f.lin.const, dtype=np.int64)
        for v, c in f.lin.coeffs:
            acc = acc + c * grids[v].astype(np.int64)
        if k == "ge":
            return acc >= 0
        return acc % f.mod == 0
    if k == "not":
        return ~grid_eval(f.args[0], grids)
    if k == "and":
        out = grid_eval(f.args[0], grids)
        for a in f.args[1:]:
            out = out & grid_eval(a, grids)
        return out
    if k == "or":
        out = grid_eval(f.args[0], grids)
        for a in f.args[1:]:
            out = out | grid_eval(a, grids)
        return out
    raise ValueError(f"grid_eval cannot handle {k!r}")


def truth_table(f: Formula, names: Sequence[str], lo: int, hi: int) -> np.ndarray:
    """Boolean array indexed by the box (one axis per name, in order)."""
    axes = np.meshgrid(*[np.arange(lo, hi + 1)] * len(names), indexing="ij")
    grids = dict(zip(names, axes))
    if not names:
        return np.array(bool(f.evaluate({})))
    return grid_eval(f, grids)


def rand_lin(rng: random.Random, names: Sequence[str], max_coeff: int = 3) -> Lin:
    n = rng.randint(1, min(3, len(names)))
    picked = rng.sample(list(names), n)
    coeffs = {v: rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c]) for v in picked}
    return Lin.make(coeffs, rng.randint(-6, 6))


def rand_formula(rng: random.Random, names: Sequence[str], depth: int = 2) -> Formula:
    if depth == 0 or rng.random() < 0.3:
        lin = rand_lin(rng, names)
        f = dvd(rng.choice([2, 3, 4]), lin) if rng.random() < 0.2 else ge0(lin)
    else:
        parts = [rand_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))]
        f = land(*parts) if rng.random() < 0.5 else lor(*parts)
    if rng.random() < 0.25:
        f = lnot(f)
    return f
