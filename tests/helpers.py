"""Shared helpers for the test suite.

Brute-force evaluation of formulas over integer boxes, both pointwise
and vectorized over the whole grid, plus small random generators used
by the differential tests (among them the steps of random product
states, `product_steps`), and the references that those tests compare
with: a dense octagon and its pack split by a scan of every entry,
column-wise row reduction, the affine assignment through a temporary
column, the full reduction of the product, an octagon's meet with an
inequality, the product's meet with a formula in negation normal form,
the loop with a separate check pass, and the target check with its
query built by `land` and simplified before the split. The backend
works by position in a variable tuple; `add` and `named` translate the
names the tests write.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterable, Mapping, Sequence

import numpy as np
from hypothesis import strategies as st

from arrayabs import lift
from arrayabs.backend import Product, abstract, analyze_scalar
from arrayabs.backend.abstract import PARTITION_CAP, WIDENING_DELAY, Interpreter
from arrayabs.backend.affine import AffineEqs, Vars, _eliminate, _primitive
from arrayabs.backend.octagon import Octagon, _components, _half, lower, octagonal
from arrayabs.bridge import cond_to_formula
from arrayabs.lia import (
    FALSE,
    Budget,
    BudgetError,
    eq0,
    Formula,
    Lin,
    dvd,
    ge0,
    implies,
    is_sat,
    land,
    lnot,
    lor,
    nnf,
    rename,
    simplify,
    split,
    subst,
)


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


# ------------------------------------------------ names and positions

def add(o, coeffs, k):
    """o met with sum(coeffs) <= k, coeffs a name -> sign map: the
    names as the (position, sign) terms of `Octagon.add`, which
    `DenseOctagon.add` takes too."""
    return o.add([(o.vars.index(v), s) for v, s in coeffs.items()], k)


def named(vars, row):
    """An integer row over vars (coefficients, then the constant b,
    meaning sum == b) as (name -> coefficient, b)."""
    return {v: c for v, c in zip(vars, row) if c}, row[-1]


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

    def __eq__(self, other):
        a, b = self.close(), other.close()
        return (a.vars, a.empty, a.m) == (b.vars, b.empty, b.m)

    def __hash__(self):
        c = self.close()
        return hash((c.vars, c.empty, c.m))

    def close(self):
        if self.empty or self.closed:
            return self
        m = dense_close(self.m)
        return DenseOctagon(self.vars, () if m is None else m, True, m is None)

    def is_empty(self):
        return self.close().empty

    def add(self, terms, k):
        c = self.close()
        if c.empty:
            return c
        nodes = [2 * i + (s < 0) for i, s in terms]
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
        """The composition `Octagon.assign` uses: a shift for v + k, the
        +v and -v nodes swapped and then a shift for -v + k, a copy for
        ±w + k, interval bounds for anything else."""
        coeffs, k = dict(lin.coeffs), lin.const
        if coeffs in ({v: 1}, {v: -1}):
            c = self.close()
            if c.empty:
                return c
            p = c._node(v, 1)
            node = {p: p ^ 1, p ^ 1: p} if coeffs[v] < 0 else {}
            m = [[c.m[node.get(i, i)][node.get(j, j)] for j in range(len(c.m))] for i in range(len(c.m))]
            sign = {p: 1, p ^ 1: -1}
            rows = tuple(
                tuple(
                    None if x is None else x + k * (sign.get(i, 0) - sign.get(j, 0))
                    for j, x in enumerate(r)
                )
                for i, r in enumerate(m)
            )
            return DenseOctagon(self.vars, rows)
        if len(coeffs) == 1 and v not in coeffs and abs(next(iter(coeffs.values()))) == 1:
            (w, s), = coeffs.items()
            return add(add(self.forget(v), {v: 1, w: -s}, k), {v: -1, w: s}, -k)
        lo = hi = k
        for w, s in lin.coeffs:
            wlo, whi = self.bounds(w)
            tlo, thi = (wlo, whi) if s > 0 else (whi, wlo)
            lo = None if lo is None or tlo is None else lo + s * tlo
            hi = None if hi is None or thi is None else hi + s * thi
        out = self.forget(v)
        if hi is not None:
            out = add(out, {v: 1}, hi)
        if lo is not None:
            out = add(out, {v: -1}, -lo)
        return out

    def constraints(self):
        """(coeffs, k) meaning sum(coeffs) <= k, one per finite entry of
        the closed matrix and its coherent mirror, in row order."""
        c = self.close()
        if c.empty:
            return
        signed = [(v, s) for v in c.vars for s in (1, -1)]
        for i, (v, s) in enumerate(signed):
            for j, (w, t) in enumerate(signed):
                x = c.m[i][j]
                if x is None or i == j or i > (j ^ 1):
                    continue
                yield ({v: s}, x // 2) if v == w else ({v: s, w: -t}, x)

    def to_formula(self):
        """Every constraint of the closed form: a superset of the atoms
        `Octagon.to_formula` keeps."""
        if self.is_empty():
            return FALSE
        return land(*(ge0(Lin.of(k) - Lin.make(coeffs)) for coeffs, k in self.constraints()))


def dense_constraints(o):
    """The constraints of the dense view of an `Octagon`'s closed form,
    half-sums between packs included."""
    c = o.close()
    return [] if c.empty else list(DenseOctagon(c.vars, c.m).constraints())


def rref_by_columns(rows, width):
    """Reference for `affine._rref`'s rows: column by column, the first
    row with a nonzero entry in the column becomes its pivot and is
    eliminated from every other row. Pivot rows first, then the rows
    left nonzero."""
    rows = list(rows)
    r = 0
    for c in range(width):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        pivot = _primitive(rows[sel])
        rows[sel] = rows[r]
        rows[r] = pivot
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = _eliminate(rows[i], pivot, c)
        r += 1
    return rows[:r] + [row for row in rows[r:] if any(row)]


def assign_through_a_column(a, v, lin):
    """Reference for `AffineEqs.assign` with no shortcut: the old value
    of v goes through a temporary extra column, which is eliminated."""
    if a.empty:
        return a
    c = a.vars.index(v)
    rows = [[*r, r[c]] for r in a.rows]
    for r in rows:
        r[c] = 0
    new = [*a.vars.row_of(lin), 0]
    new[-1], new[c] = new[c], -1
    rows.append(new)
    pivot = next((r for r in rows if r[-1]), None)
    if pivot is not None:
        rows = [_eliminate(r, pivot, -1) if r[-1] else r for r in rows if r is not pivot]
    return a._canon([r[:-1] for r in rows])


def split_by_entries(members, m, closed):
    """Reference for `octagon._split`, as (vars, matrix, closed) per
    pack: every entry between two variables is compared with the sum of
    the halves, and the variables linked by an entry that differs are
    grouped."""
    n = len(m)
    half = [_half(m[a][a ^ 1]) for a in range(n)]
    groups = _components(len(members), (
        (a // 2, b // 2)
        for a in range(n - 2)
        for b in range(a + 2 - a % 2, n)
        if m[a][b] != half[a] + half[b ^ 1]
    ))
    if len(groups) == 1:
        return [(members, m, closed)]
    out = []
    for us in groups:
        nodes = [a for u in us for a in (2 * u, 2 * u + 1)]
        out.append((tuple(members[u] for u in us), tuple(tuple(m[a][b] for b in nodes) for a in nodes), closed))
    return out


def eager_reduce(o, a):
    """The whole exchange between an octagon and an `AffineEqs`, with no
    memo: every round pushes every affine row into the octagon and reads
    every equality of every pack, until the affine part stays put. The
    reduced pair, or None when it is empty."""
    o = o.close()
    while True:
        if o.is_empty() or a.is_empty():
            return None
        for row in a.rows:
            lin = Lin.make(zip(a.vars, row), -row[-1])
            o = oct_assume(oct_assume(o, lin), -lin)
        if o.is_empty():
            return None
        before = a
        for row in o.equalities():
            a = a.add_eq(row)
        if a == before:
            return o, a


def wide(row):
    """Whether the octagon cannot hold the row, coefficients then b."""
    return not octagonal([c for c in row[:-1] if c])


def built_part(p):
    """The affine part of a `Product`, built from the equalities of its
    closed octagon when absent."""
    if p.aff is not None:
        return p.aff
    o = p.oct.close()
    if o.empty:
        return AffineEqs.bottom(p.vars)
    return functools.reduce(AffineEqs.add_eq, o.equalities(), AffineEqs.top(p.vars))


def full_reduce(p):
    """Reference for `Product.reduce`: `eager_reduce` of the octagon of p
    and its affine part, top when absent, as a `Product` whose part is
    absent when no row the octagon cannot hold is left."""
    r = eager_reduce(p.oct, p.aff or AffineEqs.top(p.vars))
    if r is None:
        return Product.bottom(p.vars)
    return Product(r[0], r[1] if any(map(wide, r[1].rows)) else None)


def oct_assume(o, lin):
    """The octagon o met with lin >= 0 when octagonal, o otherwise."""
    low = lower(lin, o.vars.pos)
    return o if o.empty or low is None else o.add(*low)


class EagerProduct:
    """Reference for the lazy affine part of `Product`: the pair of an
    `Octagon` and an `AffineEqs` with every operation applied to both,
    a guard met by walking its negation normal form (`meet_nnf`) and
    then reduced in full (`eager_reduce`). `to_formula` writes the
    reduced octagon and the affine rows it cannot hold."""

    def __init__(self, oct, aff):
        self.oct, self.aff = oct, aff

    @staticmethod
    def top(vars):
        vs = Vars.of(vars)
        return EagerProduct(Octagon.top(vs), AffineEqs.top(vs))

    @staticmethod
    def of(p):
        """The pair a `Product` stands for."""
        return EagerProduct(p.oct, built_part(p))

    def is_empty(self):
        return self.oct.is_empty() or self.aff.is_empty()

    def _bottom(self):
        return EagerProduct(Octagon.bottom(self.oct.vars), AffineEqs.bottom(self.oct.vars))

    def assign(self, v, lin):
        return EagerProduct(self.oct.assign(v, lin), self.aff.assign(v, lin))

    def forget(self, v):
        return EagerProduct(self.oct.forget(v), self.aff.forget(v))

    def join(self, other):
        if self.is_empty() or other.is_empty():
            return other if self.is_empty() else self
        return EagerProduct(self.oct.join(other.oct), self.aff.join(other.aff))

    def widen(self, other):
        if self.is_empty():
            return other
        return EagerProduct(self.oct.widen(other.oct), self.aff.widen(other.aff))

    def meet_nnf(self, f):
        """The meet with f, in negation normal form, walked as a formula.
        An "and" meets its arguments in turn, up to the first that leaves
        the octagon empty, then the equality of each complementary
        inequality pair among them; an "or" joins the meets of its
        arguments; divisibility, its negation and a non-octagonal
        inequality meet as top. Self is handed back when nothing moves."""
        k = f.kind
        if k == "false":
            return self._bottom()
        if k == "ge":
            o = oct_assume(self.oct, f.lin)
            return self if o is self.oct else EagerProduct(o, self.aff)
        if k == "and":
            out = self
            for g in f.args:
                out = out.meet_nnf(g)
                if out.oct.is_empty():
                    return out
            atoms = [g.lin for g in f.args if g.kind == "ge"]
            for i, li in enumerate(atoms):
                for lj in atoms[i + 1:]:
                    if lj == -li:
                        a = out.aff.add_eq(out.aff.vars.row_of(li))
                        out = out if a is out.aff else EagerProduct(out.oct, a)
            return out
        if k == "or":
            return functools.reduce(EagerProduct.join, [self.meet_nnf(g) for g in f.args])
        return self

    def assume(self, f):
        return self.meet_nnf(nnf(f)).reduced()

    def reduced(self):
        r = eager_reduce(self.oct, self.aff)
        return self._bottom() if r is None else EagerProduct(*r)

    def to_formula(self):
        r = self.reduced()
        if r.is_empty():
            return FALSE
        rows = (row for row in r.aff.rows if wide(row))
        return land(r.oct.to_formula(), *(eq0(Lin.make(zip(r.aff.vars, row), -row[-1])) for row in rows))


def product_steps(names, min_size, max_size, coeffs=(1, -1, 1, -1, 2, -3), width=3):
    """Random steps of a product, for `run_against_full_reduce` and
    `run_against_eager` (`test_backend.py`) and the states of
    `test_weak_updates.py`: a guard (an inequality, an equality, or a disjunction of two of
    these), both bounds of an equality as two guards in a row, which
    only the octagon sees as one, an assignment of a sum or of a
    constant, a havoc, a join with an earlier state, a widening of an
    earlier state by the latest, followed by a guard or kept
    unreduced as a loop head is (so that a later widening has an
    unclosed left side), and a rewind to an earlier state. Sums take up to `width` variables
    with coefficients from `coeffs`; with unit ones over two variables,
    only joins make a row the octagon cannot hold."""
    v, earlier = st.sampled_from(names), st.integers(1, 12)
    lin = st.builds(
        Lin.make,
        st.dictionaries(v, st.sampled_from(coeffs), min_size=1, max_size=width),
        st.integers(-3, 3),
    )
    atom = st.one_of(lin.map(ge0), lin.map(eq0))
    guard = st.one_of(atom, st.tuples(atom, atom).map(lambda ab: lor(*ab)))
    return st.lists(
        st.one_of(
            st.tuples(st.just("assume"), guard),
            st.tuples(st.just("pin"), lin),
            st.tuples(st.just("assign"), v, lin),
            st.tuples(st.just("assign"), v, st.integers(-3, 3).map(Lin.of)),
            st.tuples(st.just("forget"), v),
            st.tuples(st.just("join"), earlier),
            st.tuples(st.just("widen"), earlier, st.one_of(guard, st.none())),
            st.tuples(st.just("rewind"), earlier),
        ),
        min_size=min_size,
        max_size=max_size,
    )


# ------------------------------------------- loop with a check pass

class _Discard(list):
    """The record of a walk that only computes states: its asserts are
    never resolved."""


class CheckPassInterpreter(Interpreter):
    """Reference for `Interpreter.loop`: every round walks the body with
    a record that is thrown away, and once the head is found, a separate
    check pass walks the body from it and records its asserts. A loop
    met on a walk whose record is thrown away makes no check pass, so
    the walk count of each body is the reference's too."""

    def loop(self, s, st, met):
        _, g, not_g = self._cond(s.cond, st)
        collapsed = False

        def step(head):
            nxt = st.join(self.block(s.body, head.assume(g), _Discard()))
            return nxt.collapse() if collapsed else nxt

        inv = st
        rounds = 0
        while True:
            nxt = step(inv)
            if nxt.leq(inv):
                inv = nxt
                break
            rounds += 1
            inv = inv.join(nxt) if rounds <= WIDENING_DELAY else inv.widen(nxt)
            if len(inv.parts) > PARTITION_CAP:
                inv, collapsed = inv.collapse(), True
        if not isinstance(met, _Discard):
            self.block(s.body, inv.assume(g), met)
        return inv.assume(not_g)


def analyze_with_check_pass(sp):
    """`analyze_scalar` with the loop of `CheckPassInterpreter`."""
    saved, abstract.Interpreter = abstract.Interpreter, CheckPassInterpreter
    try:
        return analyze_scalar(sp)
    finally:
        abstract.Interpreter = saved


# ------------------------------------------------ the target check's query

def reference_check_target(inv, target, budget=None):
    """Reference for `lift.check_target`: the query built as a formula
    by `subst` at each binding and `land` over the premises and the
    negated clause, then `simplify`d before the octagon split, or handed
    whole to `is_sat` when an atom is not octagonal."""
    index_map = {k: f"{k}@" for k in target.indices}
    accesses = {}

    def read(e, index):
        terms = tuple(t.rename(index_map) for t in index)
        return Lin.var(lift._symbol(accesses, e.array, e.initial, terms))

    goal = rename(cond_to_formula(target.cond, read), index_map)
    base = nnf(implies(inv.universe, inv.matrix))
    budget = budget or Budget()
    try:
        indices = tuple(Lin.var(index_map[k]) for k in target.indices)
        premises = [subst(base, env) for env in lift._cell_bindings(inv, accesses, indices, budget)]
        query = land(*premises, nnf(goal, True))
        vs = Vars.of(query.free_vars())
        terms = {a: lower(a.lin, vs.pos) if a.kind == "ge" else None for a in query.atoms()}
        if None in terms.values():
            return is_sat(query, budget) is None

        def meet(o, lits):
            for lit in lits:
                o = o.add(*terms[lit])
                if o.empty:
                    return None
            return o

        return split(simplify(query), meet, Octagon.top(vs), budget) is None
    except BudgetError:
        return None
