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

from arrayabs.lia import FALSE, TRUE, Formula, Lin, dvd, ge0, land, lnot, lor


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


# ------------------------------------------------ dense octagon reference

def _le_inf(a, b):
    """a <= b with None as +infinity."""
    return b is None or (a is not None and a <= b)


def dense_close(m):
    """Full tight integer closure of a dense octagon matrix (tuple of
    rows, None as +infinity): shortest paths, then strengthening with
    floored halves. None when the matrix has no integer point."""
    n = len(m)
    d = [list(r) for r in m]
    for k in range(n):
        for i in range(n):
            if d[i][k] is None:
                continue
            for j in range(n):
                if d[k][j] is not None and (d[i][j] is None or d[i][k] + d[k][j] < d[i][j]):
                    d[i][j] = d[i][k] + d[k][j]
    if any(d[i][i] < 0 for i in range(n)):
        return None
    half = [None if d[j ^ 1][j] is None else d[j ^ 1][j] // 2 for j in range(n)]
    for i in range(n):
        for j in range(n):
            if half[i ^ 1] is not None and half[j] is not None:
                s = half[i ^ 1] + half[j]
                if d[i][j] is None or s < d[i][j]:
                    d[i][j] = s
        if d[i][i] < 0:
            return None
        d[i][i] = 0
    return tuple(map(tuple, d))


class DenseOctagon:
    """Reference for `Octagon`: one 2n x 2n matrix, node 2i for +v_i and
    2i+1 for -v_i, every closure a full pass. Widening keeps its left
    side as stored and leaves the result unclosed; every other
    operation closes first. `m` is () for an empty element."""

    def __init__(self, vars, m, closed=True, empty=False):
        self.vars, self.m, self.closed, self.empty = tuple(vars), m, closed, empty

    @staticmethod
    def top(vars):
        n = 2 * len(vars)
        return DenseOctagon(vars, tuple(tuple(0 if i == j else None for j in range(n)) for i in range(n)))

    def _node(self, v, sign):
        return 2 * self.vars.index(v) + (sign < 0)

    def close(self):
        if self.empty or self.closed:
            return self
        m = dense_close(self.m)
        return DenseOctagon(self.vars, () if m is None else m, True, m is None)

    def is_empty(self):
        return self.close().empty

    def add(self, coeffs, k):
        c = self.close()
        if c.empty:
            return c
        nodes = [c._node(v, s) for v, s in coeffs.items()]
        a, b = (nodes[0], nodes[0] ^ 1) if len(nodes) == 1 else (nodes[0], nodes[1] ^ 1)
        k = 2 * k if len(nodes) == 1 else k
        if _le_inf(c.m[a][b], k):
            return c
        rows = [list(r) for r in c.m]
        rows[a][b] = rows[b ^ 1][a ^ 1] = k
        return DenseOctagon(self.vars, tuple(map(tuple, rows)), False).close()

    def join(self, other):
        a, b = self.close(), other.close()
        if a.empty or b.empty:
            return b if a.empty else a
        rows = tuple(
            tuple(None if x is None or y is None else max(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.m, b.m)
        )
        return DenseOctagon(self.vars, rows)

    def widen(self, other):
        b = other.close()
        if self.empty or b.empty:
            return b if self.empty else self
        rows = tuple(
            tuple(0 if i == j else (x if _le_inf(y, x) else None) for j, (x, y) in enumerate(zip(ra, rb)))
            for i, (ra, rb) in enumerate(zip(self.m, b.m))
        )
        return DenseOctagon(self.vars, rows, False)

    def leq(self, other):
        a, b = self.close(), other.close()
        if a.empty or b.empty:
            return a.empty
        return all(_le_inf(x, y) for ra, rb in zip(a.m, b.m) for x, y in zip(ra, rb))

    def forget(self, v):
        c = self.close()
        if c.empty:
            return c
        p = c._node(v, 1)
        rows = tuple(
            tuple((0 if i == j else None) if p in (i, j) or p ^ 1 in (i, j) else x for j, x in enumerate(r))
            for i, r in enumerate(c.m)
        )
        return DenseOctagon(self.vars, rows)

    def bounds(self, v):
        c = self.close()
        if c.empty:
            return (0, -1)
        p = c._node(v, 1)
        up, lo = c.m[p][p ^ 1], c.m[p ^ 1][p]
        return (None if lo is None else -(lo // 2), None if up is None else up // 2)

    def assign(self, v, lin):
        """The composition `Octagon.assign` uses: a shift for v + k, a
        copy for ±w + k, interval bounds for anything else."""
        coeffs, k = dict(lin.coeffs), lin.const
        if coeffs == {v: 1}:
            c = self.close()
            if c.empty:
                return c
            p = c._node(v, 1)
            sign = {p: 1, p ^ 1: -1}
            rows = tuple(
                tuple(
                    None if x is None else x + k * (sign.get(i, 0) - sign.get(j, 0))
                    for j, x in enumerate(r)
                )
                for i, r in enumerate(c.m)
            )
            return DenseOctagon(self.vars, rows)
        if len(coeffs) == 1 and v not in coeffs and abs(next(iter(coeffs.values()))) == 1:
            (w, s), = coeffs.items()
            return self.forget(v).add({v: 1, w: -s}, k).add({v: -1, w: s}, -k)
        lo = hi = k
        for w, s in lin.coeffs:
            wlo, whi = self.bounds(w)
            tlo, thi = (wlo, whi) if s > 0 else (whi, wlo)
            lo = None if lo is None or tlo is None else lo + s * tlo
            hi = None if hi is None or thi is None else hi + s * thi
        out = self.forget(v)
        if hi is not None:
            out = out.add({v: 1}, hi)
        if lo is not None:
            out = out.add({v: -1}, -lo)
        return out

    def to_formula(self):
        c = self.close()
        if c.empty:
            return FALSE
        signed = [(v, s) for v in c.vars for s in (1, -1)]
        parts = []
        for i, (v, s) in enumerate(signed):
            for j, (w, t) in enumerate(signed):
                x = c.m[i][j]
                if x is None or i == j or i > (j ^ 1):
                    continue
                coeffs, k = ({v: s}, x // 2) if v == w else ({v: s, w: -t}, x)
                parts.append(ge0(Lin.of(k) - Lin.make(coeffs)))
        return land(*parts) if parts else TRUE
