"""Numeric domains of the backend, and the contract of the statement
walker that both scalar analyses share.

Properties compare an element's formula with the constraints it was
built from, point by point over a small integer box (helpers.truth_table).
The packed octagon is checked against the dense reference of
helpers.DenseOctagon step by step, incremental closure and the `closed`
mark against the full closure of its dense view, the packs and rows an
octagon operation shares with its input by object identity, the lattice
operations against entrywise references, and the affine shortcuts
against the full reduction. The product's semi-naive reduction is
checked against helpers.full_reduce after every step of random
sequences.
"""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from arrayabs.backend import (
    AbstractState,
    AffineEqs,
    AnalysisError,
    ExactError,
    Octagon,
    Product,
    analyze_loopfree_exact,
    analyze_scalar,
)
from arrayabs.backend.abstract import PARTITION_CAP, Interpreter
from arrayabs.backend.affine import _rref
from arrayabs.backend.octagon import INF
from arrayabs.lang import Havoc, parse_program
from arrayabs.lia import Lin, eq, eq0, ge0, is_sat, land, le, lor, nnf, subst
from arrayabs.transform import IndexConfig, transform_program

from helpers import DenseOctagon, box_points, dense_close, full_reduce, truth_table

NAMES = ("x", "y", "z")
NAMES4 = (*NAMES, "w")  # for properties that compare matrices, not points
LO, HI = -3, 3
x, y, z = (Lin.var(v) for v in NAMES)


def points(f, names=NAMES):
    return truth_table(f, names, LO, HI)


# ------------------------------------------------------------------ octagon

def constraint(names):
    """(coeffs, k) meaning sum(coeffs) <= k, one or two variables, unit coefficients."""
    return st.builds(
        lambda vs, signs, k: ({v: s for v, s in zip(vs, signs)}, k),
        st.sampled_from([vs for n in (1, 2) for vs in itertools.combinations(names, n)]),
        st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
        st.integers(-4, 4),
    )


oct_constraint = constraint(NAMES)


# right sides of v := rhs(v, w, k): shift, ±w + k, constant, interval fallback
ASSIGN_RHS = ("shift", "copy", "negate", "const", "fallback")


def assign_rhs(kind, v, w, k):
    return {
        "shift": Lin.var(v) + k,
        "copy": Lin.var(w) + k,
        "negate": Lin.of(k) - Lin.var(w),
        "const": Lin.of(k),
        "fallback": Lin.var(w) * 2 + k,
    }[kind]


def oct_ops(names, max_size=6):
    """Transfer and lattice operations, interpreted by `build`."""
    c, v = constraint(names), st.sampled_from(names)
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), c),
            st.tuples(st.just("eq"), c),  # both sides: pins an equality
            st.tuples(st.just("join"), st.lists(c, max_size=3)),
            st.tuples(st.just("forget"), v),
            st.tuples(st.just("assign"), v, v, st.sampled_from(ASSIGN_RHS), st.integers(-2, 2)),
        ),
        max_size=max_size,
    )


def build(ops, names=NAMES, start=None):
    o = Octagon.top(names) if start is None else start
    for op, *args in ops:
        if op == "add":
            o = o.add(*args[0])
        elif op == "eq":
            coeffs, k = args[0]
            o = o.add(coeffs, k).add({u: -c for u, c in coeffs.items()}, -k)
        elif op == "join":
            o = o.join(octagon(args[0], names))
        elif op == "forget":
            o = o.forget(args[0])
        else:
            v, w, kind, k = args
            o = o.assign(v, assign_rhs(kind, v, w, k))
    return o


def meet(o, constraints):
    for coeffs, k in constraints:
        o = o.add(coeffs, k)
    return o


def octagon(constraints, names=NAMES):
    return meet(Octagon.top(names), constraints)


def as_formula(constraints):
    return land(*(le(Lin.make(coeffs), Lin.of(k)) for coeffs, k in constraints))


def paired_constraints(o):
    """Reference for Octagon.equalities: a constraint of the closed form
    whose negation came earlier with the opposite bound."""
    seen = {}
    for coeffs, k in o.constraints():
        key = tuple(sorted(coeffs.items()))
        nkey = tuple(sorted((v, -c) for v, c in coeffs.items()))
        if nkey in seen and seen[nkey] == -k:
            yield coeffs, k
        if key not in seen or seen[key] > k:
            seen[key] = k


def node(o, v, sign, pack=None):
    """Node of the signed variable sign*v in the dense view o.m, or in
    the matrix of `pack` when given."""
    i = o.vars.index(v)
    return 2 * (i if pack is None else pack.vars.index(i)) + (sign < 0)


def edge(o, coeffs, pack=None):
    """Nodes (a, b) of the entry that o.add(coeffs, k) sets to k, its
    mirror being (b^1, a^1): in the dense view, or in `pack`, which
    holds every variable of coeffs."""
    nodes = [node(o, v, s, pack) for v, s in coeffs.items()]
    return (nodes[0], nodes[0] ^ 1) if len(nodes) == 1 else (nodes[0], nodes[1] ^ 1)


def with_entry(o, coeffs, k):
    """The dense view of o met with sum(coeffs) <= k at its entry and
    the mirror, unclosed."""
    a, b = edge(o, coeffs)
    rows = [list(r) for r in o.m]
    k = 2 * k if b == a ^ 1 else k
    if at_most(k, rows[a][b]):
        rows[a][b] = rows[b ^ 1][a ^ 1] = k
    return tuple(map(tuple, rows))


def entrywise(a, b, f):
    """Reference for the lattice operations: f over every pair of
    entries, diagonal and None (+infinity) entries included."""
    return tuple(tuple(f(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a.m, b.m))


def at_most(x, y):
    return y is None or (x is not None and x <= y)


def up_to_sign(coeffs, k):
    lin = Lin.make(coeffs, -k)
    return frozenset((lin, -lin))


class TestOctagon:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(oct_constraint, max_size=6))
    def test_close_keeps_the_points(self, cs):
        assert (points(octagon(cs).close().to_formula()) == points(as_formula(cs))).all()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(oct_constraint, max_size=6))
    def test_close_is_tight(self, cs):
        """Empty exactly when no integer point exists, and every bound of
        the closed form is attained by an integer point."""
        c = octagon(cs).close()
        f = as_formula(cs)
        assert c.is_empty() == (is_sat(f) is None)
        for coeffs, k in c.constraints():
            assert is_sat(land(f, eq(Lin.make(coeffs), Lin.of(k)))) is not None

    @settings(max_examples=100, deadline=None)
    @given(st.lists(oct_constraint, max_size=6))
    def test_closed_form_is_canonical(self, cs):
        """A full pass over the dense view, or rebuilding from the
        constraints the closed form reports, gives back the same matrix."""
        c = octagon(cs).close()
        assert c.empty or dense_close(c.m) == c.m
        assert c.empty or octagon(list(c.constraints())).close() == c

    @settings(max_examples=60, deadline=None)
    @given(st.lists(oct_constraint, max_size=4), st.lists(oct_constraint, max_size=4))
    def test_join_contains_both_sides(self, cs, ds):
        a, b = octagon(cs), octagon(ds)
        j = points(a.join(b).to_formula())
        assert (points(as_formula(cs)) <= j).all()
        assert (points(as_formula(ds)) <= j).all()
        assert a.leq(a.join(b)) and b.leq(a.join(b))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(oct_constraint, max_size=6), oct_constraint)
    def test_implied_constraint_keeps_the_closed_form(self, cs, extra):
        c = octagon(cs).close()
        coeffs, _ = extra
        # the closed form's own bound on coeffs, or a looser one
        bound = max((k for co, k in c.constraints() if co == coeffs), default=None)
        if c.empty or bound is None:
            return
        assert c.add(coeffs, bound) is c
        assert c.add(coeffs, bound + 1) is c

    @settings(max_examples=100, deadline=None)
    @given(oct_ops(NAMES4), st.lists(constraint(NAMES4), min_size=1, max_size=4))
    def test_add_to_closed_is_the_full_closure(self, ops, cs):
        """Constraints added one by one to a closed element are closed
        incrementally, inside the packs they merge; the full pass over
        the dense view with the entry set agrees at every step."""
        c = build(ops, NAMES4).close()
        for coeffs, k in cs:
            if c.empty:
                break
            got = c.add(coeffs, k)
            assert got.closed
            assert got.m == (dense_close(with_entry(c, coeffs, k)) or ())
            c = got

    @settings(max_examples=100, deadline=None)
    @given(oct_ops(NAMES4), st.lists(constraint(NAMES4), min_size=1, max_size=3))
    def test_add_to_closed_shares_the_rows_it_leaves(self, ops, cs):
        """Copy-on-write packs and rows: `add` on a closed element hands
        on every pack that holds none of its variables. Inside a pack
        that it does not merge, it copies no row that comes out
        unchanged, and a row with no finite entry towards the new edge
        a -> b or its mirror (at a and b^1) changes only in the columns
        j whose unary bound m[j^1][j] moved."""
        c = build(ops, NAMES4).close()
        for coeffs, k in cs:
            got = c.add(coeffs, k)
            if got.empty:
                break
            touched = {c.vars.index(v) for v in coeffs}
            for old, new in zip(c.packs, got.packs):
                if not touched & set(old.vars):
                    assert new is old
            p, q = c.packs[min(touched)], got.packs[min(touched)]
            if p.vars == q.vars and touched <= set(p.vars):
                a, b = edge(c, coeffs, p)
                moved = {u for u in range(len(p.m)) if q.m[u][u ^ 1] != p.m[u][u ^ 1]}
                for old, new in zip(p.m, q.m):
                    assert new is old or new != old
                    if old[a] == INF and old[b ^ 1] == INF:  # a stored row: INF, not None
                        assert all(x == y for j, (x, y) in enumerate(zip(old, new)) if j ^ 1 not in moved)
            c = got

    def test_odd_unary_bound_is_strengthened_in_untouched_rows(self):
        """x - y <= 0, then x + y <= 3, gives 2x <= 3: the unary bound is
        floored to x <= 1, and row +z, which reaches neither new edge,
        still gets z + x <= 5 + 1 through the moved column -x. z sits in
        a pack of its own, which the add hands on as is: that entry is
        the sum of the halves."""
        vs = ("x", "y", "z")
        c = octagon([({"z": 1}, 5), ({"x": 1, "y": -1}, 0)], vs)
        got = c.add({"x": 1, "y": 1}, 3)
        pz, nx = node(c, "z", 1), node(c, "x", -1)
        a, b = edge(c, {"x": 1, "y": 1})
        assert got.m == dense_close(with_entry(c, {"x": 1, "y": 1}, 3))
        assert got.bounds("x") == (None, 1)
        assert c.m[pz][a] is None and c.m[pz][b ^ 1] is None
        assert c.m[pz][nx] is None and got.m[pz][nx] == 6
        assert got.packs[2] is c.packs[2] and got.packs[0] is got.packs[1]

    @settings(max_examples=100, deadline=None)
    @given(oct_ops(NAMES4), oct_ops(NAMES4, 4), oct_ops(NAMES4, 4))
    def test_lattice_operations_are_entrywise(self, base, p, q):
        """join, widen and leq of two elements grown from one ancestor,
        so that most of their packs and rows are shared, against
        entrywise references on the dense views; a pack both sides
        share comes out of join as is, and so does a row both sides
        share in packs over the same variables."""
        ancestor = build(base, NAMES4)
        a, b = build(p, NAMES4, ancestor), build(q, NAMES4, ancestor)
        assume(not a.is_empty() and not b.is_empty())
        a, b = a.close(), b.close()
        j = a.join(b)
        assert j.m == entrywise(a, b, lambda x, y: None if x is None or y is None else max(x, y))
        for pa, pb, pj in zip(a.packs, b.packs, j.packs):
            assert pj is pa or pa is not pb
            if pa.vars == pb.vars == pj.vars:
                assert all(rj is ra for ra, rb, rj in zip(pa.m, pb.m, pj.m) if ra is rb)
        assert a.leq(b) == all(at_most(x, y) for ra, rb in zip(a.m, b.m) for x, y in zip(ra, rb))
        assert a.leq(j) and b.leq(j)
        w = a.widen(b)
        keep = entrywise(a, b, lambda x, y: x if at_most(y, x) else None)
        assert w.m == tuple(r[:i] + (0,) + r[i + 1:] for i, r in enumerate(keep))
        # the left side of a widening is used as stored, unclosed
        ww = w.widen(j)
        keep = entrywise(w, j, lambda x, y: x if at_most(y, x) else None)
        assert ww.m == tuple(r[:i] + (0,) + r[i + 1:] for i, r in enumerate(keep))

    @settings(max_examples=100, deadline=None)
    @given(
        oct_ops(NAMES4),
        st.lists(constraint(NAMES4), min_size=1, max_size=3),
        st.sampled_from(NAMES4),
        st.sampled_from(NAMES4),
        st.integers(-2, 2),
    )
    def test_closed_flag_is_honest(self, ops, cs, v, w, k):
        """Whatever an operation on a closed element marks closed, a full
        pass leaves unchanged: `add` trusts the mark."""
        c = build(ops, NAMES4).close()
        results = {
            "top": Octagon.top(NAMES4),
            "join": c.join(octagon(cs, NAMES4)),
            "forget": c.forget(v),
            "add": meet(c, cs),
            **{kind: c.assign(v, assign_rhs(kind, v, w, k)) for kind in ASSIGN_RHS},
        }
        for op, r in results.items():
            assert r.closed, op
            assert r.empty or dense_close(r.m) == r.m, op

    @settings(max_examples=60, deadline=None)
    @given(oct_ops(NAMES))
    def test_equalities(self, ops):
        """Each equality of the closed form once, the set the pairing of
        constraints() finds but for the ones between two constants in
        different packs, and each holds on every point."""
        c = build(ops).close()
        got = [up_to_sign(*e) for e in c.equalities()]
        assert len(set(got)) == len(got)
        paired = {up_to_sign(*e) for e in paired_constraints(c)}
        assert set(got) <= paired
        for e in paired - set(got):
            v, w = sorted({u for lin in e for u in lin.vars()})
            assert c.packs[c.vars.index(v)] is not c.packs[c.vars.index(w)]
            assert up_to_sign({v: 1}, c.bounds(v)[0]) in got and up_to_sign({w: 1}, c.bounds(w)[0]) in got
        inside = points(c.to_formula())
        for coeffs, k in c.equalities():
            assert points(eq(Lin.make(coeffs), Lin.of(k)))[inside].all()

    @settings(max_examples=30, deadline=None)
    @given(oct_ops(NAMES), oct_ops(NAMES))
    def test_widening_contains_both_sides(self, p, q):
        a, b = build(p), build(q)
        w = points(a.widen(b).to_formula())
        assert (points(a.to_formula()) <= w).all()
        assert (points(b.to_formula()) <= w).all()

    @settings(max_examples=100, deadline=None)
    @given(oct_ops(NAMES4), oct_ops(NAMES4), st.lists(constraint(NAMES4), max_size=3))
    def test_add_to_widened_is_the_closure_of_the_meet(self, p, q, cs):
        """A widening result stays unclosed and keeps its closure once
        computed, and `add` meets that closure (the path every widened
        loop head takes when a guard is assumed); the dense reference
        sets the entries and closes afterwards."""
        a = build(p, NAMES4).widen(build(q, NAMES4))
        assert a.close() is a.close()
        ref = DenseOctagon(a.vars, a.m, closed=a.empty, empty=a.empty)
        for coeffs, k in cs:
            ref = DenseOctagon(a.vars, with_entry(ref, coeffs, k) if not ref.empty else (), False, ref.empty)
        assert meet(a, cs).m == ref.close().m

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(oct_constraint, max_size=6),
        st.sampled_from([y * 2 + 1, x + y, x * -2 + z - 1, x * 3]),
    )
    def test_non_octagonal_assign_keeps_every_image(self, cs, rhs):
        """x := rhs with rhs outside octagon form goes through interval
        evaluation; every image of a pre-state point is in the post-state."""
        pre = as_formula(cs)
        post = octagon(cs).assign("x", rhs).to_formula()
        for p in box_points(NAMES, LO, HI):
            if pre.evaluate(p):
                assert post.evaluate({**p, "x": rhs.evaluate(p)}), p


def against_dense(names, min_size, max_size):
    """Transfer and lattice operations for `run_against_dense`; join,
    widen and leq pick their other operand from the states so far,
    counted back from the latest, so that both sides share packs and
    rows as in an analysis."""
    c, v, earlier = constraint(names), st.sampled_from(names), st.integers(1, 12)
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), c),
            st.tuples(st.just("eq"), c),
            st.tuples(st.just("assign"), v, v, st.sampled_from(ASSIGN_RHS), st.integers(-2, 2)),
            st.tuples(st.just("forget"), v),
            st.tuples(st.just("box"), v, st.integers(-3, 3), st.integers(0, 2)),
            st.tuples(st.just("join"), earlier, st.booleans()),
            st.tuples(st.just("widen"), earlier, st.booleans()),
            st.tuples(st.just("leq"), earlier),
            st.tuples(st.just("rewind"), earlier),  # go on from an earlier state: a branch
        ),
        min_size=min_size,
        max_size=max_size,
    )


def boxes(names):
    """(v, lo, width): v into [lo, lo + width]."""
    return st.lists(st.tuples(st.sampled_from(names), st.integers(-3, 3), st.integers(0, 2)), max_size=4)


def put_in_boxes(o, d, bs):
    """o and its dense twin d with every v of bs forgotten and put into
    its box."""
    for v, lo, width in bs:
        o = o.forget(v).add({v: 1}, lo + width).add({v: -1}, -lo)
        d = d.forget(v).add({v: 1}, lo + width).add({v: -1}, -lo)
    return o, d


def run_against_dense(names, ops):
    """Each operation on a packed element and on the dense reference;
    after every step the dense view of the one is the matrix of the
    other, and the formulas read the same."""
    states = [(Octagon.top(names), DenseOctagon.top(names))]
    o, d = states[0]
    for op, *args in ops:
        if op == "add":
            o, d = o.add(*args[0]), d.add(*args[0])
        elif op == "eq":
            (coeffs, k), = args
            back = {u: -c for u, c in coeffs.items()}
            o, d = o.add(coeffs, k).add(back, -k), d.add(coeffs, k).add(back, -k)
        elif op == "assign":
            v, w, kind, k = args
            rhs = assign_rhs(kind, v, w, k)
            o, d = o.assign(v, rhs), d.assign(v, rhs)
        elif op == "forget":
            o, d = o.forget(args[0]), d.forget(args[0])
        elif op == "box":  # v into [lo, lo + width], a pack of its own
            o, d = put_in_boxes(o, d, [args])
        else:
            po, pd = states[-1 - args[0] % len(states)]
            if op == "rewind":
                o, d = po, pd
            elif op == "leq":
                assert o.leq(po) == d.leq(pd) and po.leq(o) == pd.leq(d)
            elif args[1]:  # the earlier state on the left
                o, d = getattr(po, op)(o), getattr(pd, op)(d)
            else:
                o, d = getattr(o, op)(po), getattr(d, op)(pd)
        assert o.m == d.m, op
        assert str(o.to_formula()) == str(d.to_formula()), op
        states.append((o, d))


NAMES8 = tuple(f"v{i}" for i in range(8))
NAMES12 = tuple(f"v{i}" for i in range(12))


class TestPackedAgainstDense:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: against_dense(NAMES8[:n], 4, 16)))
    def test_every_step_matches_the_dense_reference(self, ops):
        run_against_dense(NAMES8, ops)

    @pytest.mark.slow
    @settings(max_examples=2000, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: against_dense(NAMES12[:n], 16, 32)))
    def test_long_sweep_against_the_dense_reference(self, ops):
        run_against_dense(NAMES12, ops)

    @settings(max_examples=150, deadline=None)
    @given(oct_ops(NAMES4), boxes(NAMES4), boxes(NAMES4))
    def test_branches_that_move_bounds_apart(self, base, p, q):
        """Two branches from one ancestor put some variables into boxes
        of their own; join and widen, both ways round, against the
        dense reference. Where one branch raises a bound and the other
        lowers one, the result relates variables that no pack of either
        branch relates."""
        ancestor = build(base, NAMES4).close()
        dense = DenseOctagon(NAMES4, ancestor.m, empty=ancestor.empty)
        (a, da), (b, db) = (put_in_boxes(ancestor, dense, bs) for bs in (p, q))
        for op in ("join", "widen"):
            assert getattr(a, op)(b).m == getattr(da, op)(db).m, op
            assert getattr(b, op)(a).m == getattr(db, op)(da).m, op

    def test_join_merges_packs_whose_bounds_move_apart(self):
        """{x = 0, y = 1} join {x = 1, y = 0} holds x + y == 1, which no
        pair of unary bounds says: x and y end in one pack. Where the
        bounds of y stay put, x and y stay apart."""
        def box(x_lo, x_hi, y_lo, y_hi):
            return octagon([({"x": 1}, x_hi), ({"x": -1}, -x_lo), ({"y": 1}, y_hi), ({"y": -1}, -y_lo)], ("x", "y"))

        j = box(0, 0, 1, 1).join(box(1, 1, 0, 0))
        assert j.packs[0] is j.packs[1]
        assert ({"x": 1, "y": 1}, 1) in list(j.constraints()) and ({"x": -1, "y": -1}, -1) in list(j.constraints())
        apart = box(0, 0, 0, 1).join(box(1, 1, 0, 1))
        assert apart.packs[0] is not apart.packs[1]
        assert apart.m == box(0, 1, 0, 1).m


# ------------------------------------------------------------------- affine

coeff = st.integers(-2, 2)
aff_lin = st.builds(lambda a, b, c, k: Lin.make({"x": a, "y": b, "z": c}, k), coeff, coeff, coeff, st.integers(-4, 4))


def eliminable(v):
    """Equalities lin = 0 whose first lin has coefficient 1 on v, so that
    v is an integer function of the others and projecting v is exact."""
    first = st.builds(lambda lin: lin.drop(v) + Lin.var(v), aff_lin)
    return st.tuples(first, st.lists(aff_lin, max_size=2)).map(lambda t: [t[0], *t[1]])


def affine(lins, names=NAMES):
    e = AffineEqs.top(names)
    for lin in lins:
        e = e.add_eq(lin)
    return e


def project(lins, v):
    """The other equalities with v solved from the first."""
    sol = Lin.var(v) - lins[0]
    return land(*(eq0(lin.subst({v: sol})) for lin in lins[1:]))


def hull(pts):
    """Affine hull of box points: the join of one element per point."""
    out = affine([v - c for v, c in zip((x, y, z), pts[0])])
    for pt in pts[1:]:
        out = out.join(affine([v - c for v, c in zip((x, y, z), pt)]))
    return out


def full_join(a, b):
    """Reference for AffineEqs.join with no shortcut: the Zassenhaus
    block of both sides through _rref, then _canon."""
    w = len(a.vars) + 1
    block = [[*r, *r] for r in a.rows] + [[*r, *[0] * w] for r in b.rows]
    return a._canon([row[w:] for row in _rref(block, 2 * w) if not any(row[:w])])


box_point = st.tuples(*[st.integers(LO, HI)] * len(NAMES))
# random equalities are often empty on the box; hulls of box points never are
aff_elem = st.one_of(st.lists(aff_lin, max_size=3).map(affine), st.lists(box_point, min_size=1, max_size=3).map(hull))


class TestAffine:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(aff_lin, max_size=4))
    def test_add_eq_is_exact(self, lins):
        expected = land(*(eq0(lin) for lin in lins))
        assert (points(affine(lins).to_formula()) == points(expected)).all()
        assert affine(lins).is_empty() == (is_sat(expected) is None)

    @settings(max_examples=100, deadline=None)
    @given(eliminable("z"))
    def test_forget_is_projection(self, lins):
        got = affine(lins).forget("z")
        assert (points(got.to_formula()) == points(project(lins, "z"))).all()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(aff_lin, max_size=3))
    def test_assign_increment_is_exact(self, lins):
        got = affine(lins).assign("x", x + 1)
        expected = subst(land(*(eq0(lin) for lin in lins)), {"x": x - 1})
        assert (points(got.to_formula()) == points(expected)).all()

    @settings(max_examples=100, deadline=None)
    @given(eliminable("x"))
    def test_assign_affine_is_exact(self, lins):
        got = affine(lins).assign("x", y * 2 + 1)
        expected = land(eq(x, y * 2 + 1), project(lins, "x"))
        assert (points(got.to_formula()) == points(expected)).all()

    @settings(max_examples=100, deadline=None)
    @given(aff_elem, aff_elem)
    def test_widening_contains_both_sides(self, a, b):
        w = points(a.widen(b).to_formula())
        assert (points(a.to_formula()) <= w).all()
        assert (points(b.to_formula()) <= w).all()

    @settings(max_examples=100, deadline=None)
    @given(aff_elem, aff_elem)
    def test_meet_is_the_intersection(self, a, b):
        got = points(a.meet(b).to_formula())
        assert (got == (points(a.to_formula()) & points(b.to_formula()))).all()

    def test_join_is_the_affine_hull(self):
        origin = affine([x, y], ("x", "y"))
        other = affine([x - 2, y - 4], ("x", "y"))
        assert origin.join(other) == affine([y - x * 2], ("x", "y"))

    def test_integer_rows(self):
        assert affine([x * 2 - 1]).is_empty()
        assert affine([x * 2 - z + 1, y * 2 + z]).is_empty()  # 2x + 2y = -1
        e = affine([x * 2 + y * 4 - 2])
        assert e.rows == ((1, 2, 0, 1),)
        assert list(e.equalities()) == [({"x": 1, "y": 2}, 1)]

    @settings(max_examples=100, deadline=None)
    @given(aff_elem, aff_elem, st.lists(st.integers(-2, 2), min_size=3, max_size=3), aff_lin)
    def test_shortcuts_agree_with_the_reduction(self, a, b, mults, lin):
        """add_eq of an implied row, and join with an equal element,
        return the element itself, which is what the full reduction
        returns."""
        implied = sum((Lin.make(c, -k) * m for (c, k), m in zip(a.equalities(), mults)), Lin.of(0))
        assert a.add_eq(implied) is a
        for row in (implied, lin):
            assert a.add_eq(row) == (a if a.empty else a._canon([*a.rows, a._row_of(row)]))
        if a.empty:
            return
        same = AffineEqs(a.vars, a.rows)
        assert a.join(same) is a and a == full_join(a, same)
        assert b.empty or a.join(b) == full_join(a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(aff_lin, max_size=4).flatmap(lambda ls: st.tuples(st.just(ls), st.permutations(ls))))
    def test_order_does_not_matter(self, pair):
        lins, shuffled = pair
        assert affine(lins) == affine(shuffled)


# ------------------------------------------------------------------ product


class TestProduct:
    def test_affine_row_reaches_octagon(self):
        p = Product.top(("x", "y"))
        p = Product(p.oct, p.aff.add_eq(x - y)).reduce()
        assert p.oct.leq(Octagon.top(("x", "y")).add({"x": 1, "y": -1}, 0).add({"x": -1, "y": 1}, 0))

    def test_octagon_pair_reaches_affine(self):
        p = Product.top(("x", "y"))
        p = Product(p.oct.add({"x": 1}, 3).add({"x": -1}, -3), p.aff).reduce()
        assert p.aff == AffineEqs.top(("x", "y")).add_eq(x - 3)


def product(ops, lins):
    return Product(build(ops), affine(lins))


def product_steps(names, min_size, max_size):
    """Steps for `run_against_full_reduce`: a guard (an inequality,
    octagonal or not, an equality, or a disjunction of two of these),
    both bounds of an equality as two guards in a row, which only the
    octagon sees as one, an assignment, a havoc, a join with an earlier
    state, a widening of an earlier state by the latest followed by a
    guard, as at a loop head, and a rewind to an earlier state."""
    v, earlier = st.sampled_from(names), st.integers(1, 12)
    lin = st.builds(
        Lin.make,
        st.dictionaries(v, st.sampled_from((1, -1, 1, -1, 2, -3)), min_size=1, max_size=3),
        st.integers(-3, 3),
    )
    atom = st.one_of(lin.map(ge0), lin.map(eq0))
    guard = st.one_of(atom, st.tuples(atom, atom).map(lambda ab: lor(*ab)))
    return st.lists(
        st.one_of(
            st.tuples(st.just("assume"), guard),
            st.tuples(st.just("pin"), lin),
            st.tuples(st.just("assign"), v, lin),
            st.tuples(st.just("forget"), v),
            st.tuples(st.just("join"), earlier),
            st.tuples(st.just("widen"), earlier, guard),
            st.tuples(st.just("rewind"), earlier),
        ),
        min_size=min_size,
        max_size=max_size,
    )


def reduced_value(p):
    return p.oct.m, p.aff.rows, p.aff.empty


def run_against_full_reduce(names, steps):
    """Each step on a product as the analysis takes it: a guard met and
    reduced, everything else left unreduced. After every step the
    reduction equals `full_reduce` of the same components, in the dense
    view and the affine rows."""
    states = [Product.top(names)]
    p = states[0]
    for op, *args in steps:
        if op == "assign":
            p = p.assign(*args)
        elif op == "forget":
            p = p.forget(args[0])
        elif op == "pin":
            p = p.assume(ge0(args[0])).reduce().assume(ge0(-args[0]))
        elif op != "assume":
            q = states[-1 - args[0] % len(states)]
            p = q if op == "rewind" else p.join(q) if op == "join" else q.widen(p)
        if op in ("assume", "widen"):
            p = p.assume(nnf(args[-1]))
        assert reduced_value(p.reduce()) == reduced_value(full_reduce(Product(p.oct, p.aff))), op
        if op in ("assume", "pin", "widen"):
            p = p.reduce()
        states.append(p)


class TestReduction:
    @settings(max_examples=150, deadline=None)
    @given(product_steps(NAMES4, 4, 16))
    def test_every_reduction_matches_the_full_exchange(self, steps):
        run_against_full_reduce(NAMES4, steps)

    @pytest.mark.slow
    @settings(max_examples=1500, deadline=None)
    @given(st.integers(2, 6).flatmap(lambda n: product_steps(NAMES8[:n], 16, 32)))
    def test_long_sweep_against_the_full_exchange(self, steps):
        run_against_full_reduce(NAMES8, steps)

    def test_affine_row_made_octagonal_by_an_equality_reaches_the_octagon(self):
        # x + y + z == 3, then y + z == 1: the rows become x == 2 and
        # y + z == 1, both of which the octagon can hold
        p = Product.top(NAMES).assume(eq0(x + y + z - 3)).reduce()
        assert p.oct.bounds("x") == (None, None)
        p = p.assume(eq0(y + z - 1)).reduce()
        assert p.oct.bounds("x") == (2, 2)
        assert ({"y": 1, "z": 1}, 1) in list(p.oct.constraints())

    def test_octagon_equality_that_makes_an_affine_row_octagonal_comes_back(self):
        # x + y == 2 * z in the affine part; y == 1 and z == 2 arrive as
        # one bound at a time, so the octagon alone sees them whole: the
        # affine part reads them, and x == 3 goes back to the octagon
        p = Product.top(NAMES).assume(eq0(x + y - z * 2)).reduce()
        for g in (ge0(y - 1), ge0(-y + 1), ge0(z - 2), ge0(-z + 2)):
            p = p.assume(g).reduce()
        assert p.oct.bounds("x") == (3, 3)

    def test_reduced_element_and_implied_guard_hand_back_the_element(self):
        p = Product.top(NAMES).assume(land(eq(x, y), le(x, Lin.of(3)), eq0(x + y - 2 * z))).reduce()
        assert p.reduce() is p
        # z == x follows through the affine part only
        for implied in (le(y, Lin.of(3)), eq(y, x), le(z, Lin.of(3)), eq(z, x)):
            assert p.assume(nnf(implied)) is p
        # the memo stays out of equality and the hash
        bare = Product(p.oct, p.aff)
        assert bare == p and hash(bare) == hash(p)
        assert full_reduce(bare) == p


class TestProductLaws:
    @settings(max_examples=25, deadline=None)
    @given(oct_ops(NAMES, 4), st.lists(aff_lin, max_size=2), oct_ops(NAMES, 4), st.lists(aff_lin, max_size=2))
    def test_join_contains_both_sides(self, p, e, q, f):
        a, b = product(p, e), product(q, f)
        j = points(a.join(b).to_formula())
        assert (points(a.to_formula()) <= j).all()
        assert (points(b.to_formula()) <= j).all()

    @settings(max_examples=25, deadline=None)
    @given(oct_ops(NAMES, 4), st.lists(aff_lin, max_size=2))
    def test_order_is_reflexive(self, p, e):
        a = product(p, e)
        assert a.leq(a)

    @settings(max_examples=25, deadline=None)
    @given(oct_ops(NAMES, 4), st.lists(aff_lin, max_size=2), oct_ops(NAMES, 4), st.lists(aff_lin, max_size=2))
    def test_widening_contains_both_sides(self, p, e, q, f):
        a, b = product(p, e), product(q, f)
        w = points(a.widen(b).to_formula())
        assert (points(a.to_formula()) <= w).all()
        assert (points(b.to_formula()) <= w).all()


class TestPartitions:
    def test_collapse_merges_every_bucket(self):
        flags = ("f0", "f1", "f2", "f3")
        valuations = list(itertools.product((0, 1), repeat=len(flags)))[: PARTITION_CAP + 1]
        parts = {v: Product.top(("x",)).assume(eq(x, Lin.of(n))) for n, v in enumerate(valuations)}
        (key, merged), = AbstractState(flags, parts).collapse().parts.items()
        assert key == (None,) * len(flags)
        assert all(p.leq(merged) for p in parts.values())


# ------------------------------------------------------------------- walker

DEAD_ASSERTS = """proc p(x: int) {
  if (x < 0 && x > 0) {
    assert(x == 5);
    assert(x == 6);
  }
  assert(x == x);
}
"""

DEAD_LOOP = """proc p(x: int) {
  var i: int;
  if (x < 0 && x > 0) {
    while (i < 3) {
      i = i + 1;
    }
  }
}
"""


class TestWalker:
    def test_dead_code_records_no_verdicts(self):
        sp = transform_program(parse_program(DEAD_ASSERTS), IndexConfig())
        assert [(a.line, a.proven) for a in analyze_scalar(sp).asserts] == [(6, True)]
        assert list(analyze_loopfree_exact(sp).asserts) == [(6, True)]

    def test_exact_analysis_rejects_an_unreachable_loop(self):
        sp = transform_program(parse_program(DEAD_LOOP), IndexConfig())
        with pytest.raises(ExactError, match="line 4: loop"):
            analyze_loopfree_exact(sp)

    def test_havoc_of_a_flag_is_rejected(self):
        st0 = AbstractState(("f",), {(0,): Product.top(("x",))})
        with pytest.raises(AnalysisError, match="observer flag f havocked"):
            Interpreter(("x",), ("f",)).block((Havoc("f"),), st0, True)


class TestExactAsserts:
    def test_asserts_on_one_line_in_program_order(self):
        src = "proc p(x: int) {\n  var y: int;\n  assert(%s); assert(%s);\n}\n"
        for first, second, verdicts in (("x == 0", "y == 0", [False, True]), ("y == 0", "x == 0", [True, False])):
            res = analyze_loopfree_exact(transform_program(parse_program(src % (first, second)), IndexConfig()))
            assert [ok for _, ok in res.asserts] == verdicts
            assert len({line for line, _ in res.asserts}) == 1
