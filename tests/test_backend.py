"""Numeric domains of the backend, and the contract of the statement
walker that both scalar analyses share.

Properties compare an element's formula with the constraints it was
built from, point by point over a small integer box (helpers.truth_table).
The packed octagon is checked against the dense reference of
helpers.DenseOctagon step by step, equality and hash included,
incremental closure and the `closed` mark against the full closure of
its dense view, the packs and rows an octagon operation shares with
its input by object identity, the lattice operations against entrywise
references, and the affine shortcuts against the full reduction. Row
reduction, the affine assignment and the pack split are checked
against the helpers' column-wise, temporary-column and every-entry
references. The product's semi-naive reduction is checked against
helpers.full_reduce after every step of random sequences, its lazy
affine part against the eager pair of helpers.EagerProduct on the same
sequences, and its meet with a compiled guard against that pair's meet
with the negation normal form walked as a formula.
"""

import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from arrayabs.backend import (
    AbstractState,
    AffineEqs,
    ExactError,
    Octagon,
    Product,
    analyze_loopfree_exact,
    analyze_scalar,
)
from arrayabs.backend import exact, octagon as packed
from arrayabs.backend.abstract import PARTITION_CAP
from arrayabs.backend.affine import _rref
from arrayabs.backend.octagon import INF, _closure, _irredundant, _split
from arrayabs.backend.product import compile_guard
from arrayabs.lang import CheckError, parse_program
from arrayabs.lia import FALSE, TRUE, Formula, Lin, dvd, eq, eq0, ge0, is_sat, land, le, lor, nnf, subst
from arrayabs.transform import IndexConfig, transform_program

from helpers import (
    DenseOctagon,
    EagerProduct,
    add,
    assign_through_a_column,
    box_points,
    built_part,
    dense_close,
    dense_constraints,
    full_reduce,
    named,
    oct_assume,
    product_steps,
    rref_by_columns,
    split_by_entries,
    truth_table,
)

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
    """Transfer and lattice operations, interpreted by `build`. A wedge
    puts the variables into one box and relates each pair of a
    permutation, (first, second), (third, fourth), through one of the
    four entries between them, the others staying at the sum of the
    halves: `_split` has to keep such a pair in one pack."""
    c, v = constraint(names), st.sampled_from(names)
    signs = st.lists(st.sampled_from((1, -1)), min_size=4, max_size=4)
    return st.lists(
        st.one_of(
            st.tuples(st.just("add"), c),
            st.tuples(st.just("eq"), c),  # both sides: pins an equality
            st.tuples(st.just("wedge"), st.permutations(names), signs, st.integers(-3, 3), st.integers(1, 2)),
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
            o = add(o, *args[0])
        elif op == "eq":
            coeffs, k = args[0]
            o = add(add(o, coeffs, k), {u: -c for u, c in coeffs.items()}, -k)
        elif op == "join":
            o = o.join(octagon(args[0], names))
        elif op == "forget":
            o = o.forget(args[0])
        elif op == "wedge":
            # v, w in [lo, hi] and s*v + t*w one below the sum of its halves
            perm, signs, lo, width = args
            hi = lo + width
            for v, w, s, t in zip(perm[::2], perm[1::2], signs[::2], signs[1::2]):
                o = meet(o.forget(v).forget(w), [({v: 1}, hi), ({v: -1}, -lo), ({w: 1}, hi), ({w: -1}, -lo)])
                o = add(o, {v: s, w: t}, (hi if s > 0 else -lo) + (hi if t > 0 else -lo) - 1)
        else:
            v, w, kind, k = args
            o = o.assign(v, assign_rhs(kind, v, w, k))
    return o


def meet(o, constraints):
    for coeffs, k in constraints:
        o = add(o, coeffs, k)
    return o


def octagon(constraints, names=NAMES):
    return meet(Octagon.top(names), constraints)


def as_formula(constraints):
    return land(*(le(Lin.make(coeffs), Lin.of(k)) for coeffs, k in constraints))


def paired_constraints(o):
    """Reference for Octagon.equalities: a constraint of the closed form
    whose negation came earlier with the opposite bound."""
    seen = {}
    for coeffs, k in dense_constraints(o):
        key = tuple(sorted(coeffs.items()))
        nkey = tuple(sorted((v, -c) for v, c in coeffs.items()))
        if nkey in seen and seen[nkey] == -k:
            yield coeffs, k
        if key not in seen or seen[key] > k:
            seen[key] = k


def from_atoms(f, names=NAMES, rnd=None):
    """The closed octagon of the conjunction of octagonal atoms f, met
    atom by atom, in an order shuffled by rnd when given."""
    if f.kind == "false":
        return Octagon.bottom(names)
    atoms = list(f.atoms())
    if rnd is not None:
        rnd.shuffle(atoms)
    o = Octagon.top(names)
    for a in atoms:
        o = oct_assume(o, a.lin)
    return o.close()


def node(o, v, sign, pack=None):
    """Node of the signed variable sign*v in the dense view o.m, or in
    the matrix of `pack` when given."""
    i = o.vars.index(v)
    return 2 * (i if pack is None else pack.vars.index(i)) + (sign < 0)


def edge(o, coeffs, pack=None):
    """Nodes (a, b) of the entry that add(o, coeffs, k) sets to k, its
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
        for coeffs, k in dense_constraints(c):
            assert is_sat(land(f, eq(Lin.make(coeffs), Lin.of(k)))) is not None

    @settings(max_examples=100, deadline=None)
    @given(st.lists(oct_constraint, max_size=6))
    def test_closed_form_is_canonical(self, cs):
        """A full pass over the dense view, or rebuilding from the
        constraints the closed form reports, gives back the same matrix."""
        c = octagon(cs).close()
        assert c.empty or dense_close(c.m) == c.m
        assert c.empty or octagon(dense_constraints(c)).close() == c

    @settings(max_examples=150, deadline=None)
    @given(oct_ops(NAMES4, 10))
    def test_irredundant_entries_close_to_the_pack(self, ops):
        """In every pack of a closed element, the kept entries, with
        their mirrors, close to the pack's matrix, and none of them is
        witnessed by two other kept ones: neither a 2-path nor the
        half-sum of two unary bounds is at most its bound."""
        c = build(ops, NAMES4).close()
        assume(not c.empty)
        for p in c._distinct():
            m, n = p.m, len(p.m)
            on = {e for a, b in _irredundant(m) for e in ((a, b), (b ^ 1, a ^ 1))}
            d = [[0 if a == b else INF for b in range(n)] for a in range(n)]
            for a, b in on:
                d[a][b] = m[a][b]
            assert _closure(d) == m
            for a, b in on:
                others = on - {(a, b), (b ^ 1, a ^ 1)}
                assert not any(
                    (a, k) in others and (k, b) in others and m[a][k] + m[k][b] <= m[a][b] for k in range(n)
                ), (a, b)
                assert not (
                    b != a ^ 1 and {(a, a ^ 1), (b ^ 1, b)} <= others
                    and m[a][a ^ 1] // 2 + m[b ^ 1][b] // 2 <= m[a][b]
                ), (a, b)

    def test_zero_cycle_keeps_its_equalities(self):
        """x == y == z and 0 <= x <= 5: every difference is bounded by 0
        both ways, and each such entry is the sum of two others, so
        only a witness still kept may drop one; the formula keeps
        x == y == z and the bounds."""
        cs = [
            ({"x": 1, "y": -1}, 0), ({"x": -1, "y": 1}, 0), ({"y": 1, "z": -1}, 0),
            ({"y": -1, "z": 1}, 0), ({"x": 1}, 5), ({"x": -1}, 0),
        ]
        c = octagon(cs).close()
        f = c.to_formula()
        assert from_atoms(f) == c
        assert (points(f) == points(as_formula(cs))).all()
        assert len(f.atoms()) < len(dense_constraints(c))

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
        bound = max((k for co, k in dense_constraints(c) if co == coeffs), default=None)
        if c.empty or bound is None:
            return
        assert add(c, coeffs, bound) is c
        assert add(c, coeffs, bound + 1) is c

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
            got = add(c, coeffs, k)
            assert got.closed
            assert got.m == (dense_close(with_entry(c, coeffs, k)) or ())
            c = got

    @settings(max_examples=100, deadline=None)
    @given(oct_ops(NAMES4), st.lists(constraint(NAMES4), min_size=1, max_size=4))
    # x - y <= 0, then y - x <= -1: the entry back, 0, makes the sum -1
    @example([("add", ({"x": 1, "y": -1}, 0))], [({"x": -1, "y": 1}, -1)])
    def test_a_refuted_constraint_is_not_closed(self, ops, cs):
        """A constraint whose bound k and the dense view's entry back
        from b to a sum below 0 comes back empty with no call of
        `_close_with`. Any other meet is empty exactly when the full
        pass finds it so."""
        c = build(ops, NAMES4).close()
        close_with, calls = packed._close_with, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(packed, "_close_with", lambda *args: calls.append(args) or close_with(*args))
            for coeffs, k in cs:
                if c.empty:
                    break
                a, b = edge(c, coeffs)
                refuted = c.m[b][a] is not None and (2 * k if b == a ^ 1 else k) + c.m[b][a] < 0
                calls.clear()
                got = add(c, coeffs, k)
                assert got.empty == (dense_close(with_entry(c, coeffs, k)) is None)
                assert not refuted or got.empty and not calls
                c = got

    def test_is_empty_of_a_widened_element_closes_nothing(self):
        """A widening result is left unclosed, and `is_empty()` reads its
        flag: it calls no `_closure`, which closing the element does."""
        a = octagon([({"y": -1}, 2), ({"y": 1}, 2), ({"x": -1, "y": 1}, -1)], ("x", "y"))
        wide = a.widen(a.join(octagon([({"x": -1}, 0), ({"x": 1, "y": 1}, 1)], ("x", "y"))))
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(packed, "_closure", lambda *args: calls.append(args) or _closure(*args))
            assert not wide.closed and not wide.is_empty()
            assert not calls
            wide.close()
            assert calls

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
            got = add(c, coeffs, k)
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
        got = add(c, {"x": 1, "y": 1}, 3)
        pz, nx = node(c, "z", 1), node(c, "x", -1)
        a, b = edge(c, {"x": 1, "y": 1})
        assert got.m == dense_close(with_entry(c, {"x": 1, "y": 1}, 3))
        assert got.bounds("x") == (None, 1)
        assert c.m[pz][a] is None and c.m[pz][b ^ 1] is None
        assert c.m[pz][nx] is None and got.m[pz][nx] == 6
        assert got.packs[2] is c.packs[2] and got.packs[0] is got.packs[1]

    @settings(max_examples=100, deadline=None)
    @given(oct_ops(NAMES4), oct_ops(NAMES4, 4), oct_ops(NAMES4, 4))
    # the halves of x and y move apart, so the join merges their unions
    # and cuts them again, with rows both sides share among the cut ones
    @example(
        [],
        [("add", ({"x": 1}, 1)), ("add", ({"y": -1}, 1))],
        [("wedge", ["x", "y", "z", "w"], [1, 1, 1, 1], 1, 1), ("add", ({"x": 1}, 0)),
         ("join", [({"x": 1}, 0), ({"y": -1}, 0)])],
    )
    def test_lattice_operations_are_entrywise(self, base, p, q):
        """join, widen and leq of two elements grown from one ancestor,
        so that most of their packs and rows are shared, against
        entrywise references on the dense views; a pack both sides
        share comes out of join as is, and so does a row both sides
        share in packs over the same variables, also where the join
        merged packs and split them again."""
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
        the dense view's constraints finds but for the ones between two
        constants in different packs, and each holds on every point."""
        c = build(ops).close()
        got = [up_to_sign(*named(c.vars, e)) for e in c.equalities()]
        assert len(set(got)) == len(got)
        paired = {up_to_sign(*e) for e in paired_constraints(c)}
        assert set(got) <= paired
        for e in paired - set(got):
            v, w = sorted({u for lin in e for u in lin.vars()})
            assert c.packs[c.vars.index(v)] is not c.packs[c.vars.index(w)]
            assert up_to_sign({v: 1}, c.bounds(v)[0]) in got and up_to_sign({w: 1}, c.bounds(w)[0]) in got
        inside = points(c.to_formula())
        for coeffs, k in (named(c.vars, e) for e in c.equalities()):
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
    # z - w <= 1 is dropped, z + w <= 4 kept: the closure has z - w <= 2
    @example([("wedge", list(NAMES4), [1, 1, 1, -1], 0, 2)], [("wedge", list(NAMES4), [1, 1, 1, 1], 0, 2)], [])
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
        # with no constraint the meet is the widening result itself, as
        # stored: its closure is what equals the reference's
        got = meet(a, cs)
        assert got.closed if cs else got is a
        assert got.close().m == ref.close().m

    @settings(max_examples=60, deadline=None)
    @given(st.lists(oct_constraint, max_size=6), st.integers(-3, 3))
    def test_negation_is_the_exact_image(self, cs, k):
        """x := k - x keeps every relation of x: a point is in the
        post-state exactly when its preimage, x read as k - x, is in the
        pre-state."""
        pre = as_formula(cs)
        post = octagon(cs).assign("x", Lin.of(k) - x).to_formula()
        for p in box_points(NAMES, LO, HI):
            assert post.evaluate(p) == pre.evaluate({**p, "x": k - p["x"]}), p

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
        o = add(add(o.forget(v), {v: 1}, lo + width), {v: -1}, -lo)
        d = add(add(d.forget(v), {v: 1}, lo + width), {v: -1}, -lo)
    return o, d


def run_against_dense(names, ops):
    """Each operation on a packed element and on the dense reference;
    after every step the packed element is empty exactly when the
    closed reference is, the dense view of the one is the matrix of the
    other, the octagon rebuilt from the packed element's formula closes
    to that matrix, and each atom of that formula is one of the dense
    reference's. Returns every state pair."""
    states = [(Octagon.top(names), DenseOctagon.top(names))]
    o, d = states[0]
    for op, *args in ops:
        if op == "add":
            o, d = add(o, *args[0]), add(d, *args[0])
        elif op == "eq":
            (coeffs, k), = args
            back = {u: -c for u, c in coeffs.items()}
            o, d = add(add(o, coeffs, k), back, -k), add(add(d, coeffs, k), back, -k)
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
        # the flag, read before anything closes o, is the emptiness of the closed reference
        assert o.empty == d.is_empty(), op
        assert o.m == d.m, op
        f = o.to_formula()
        assert from_atoms(f, names).m == d.close().m, op
        assert set(f.atoms()) <= set(d.to_formula().atoms()), op
        states.append((o, d))
    return states


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

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda n: against_dense(NAMES8[:n], 2, 10)),
        st.lists(oct_ops(NAMES8, 3), max_size=2),
        st.randoms(use_true_random=False),
    )
    def test_equality_and_hash_agree_with_the_dense_reference(self, ops, branches, rnd):
        """Every two states of a run, branches of its last state, which
        share its packs, and each of the last ones with a copy rebuilt
        from the atoms of its formula in shuffled order, which may
        partition them otherwise, are equal exactly when their closed
        dense views are (the run checks those against dense twins);
        equal states hash alike."""
        states = [o for o, _ in run_against_dense(NAMES8, ops)]
        states += [build(b, NAMES8, states[-1]) for b in branches]
        states += [from_atoms(o.to_formula(), NAMES8, rnd) for o in states[-3:]]
        for a, b in itertools.combinations(states, 2):
            same = a.close().m == b.close().m
            assert (a == b) == same
            assert hash(a) == hash(b) or not same

    def test_equal_states_packed_apart_compare_in_the_dense_view(self):
        """x = 0 and y = 0 in two packs, or in one through x == y:
        the same points, so equal, and hashed alike; an unclosed
        widening result, whose stored form lacks a bound its closure
        holds, is compared and hashed by its closed form."""
        apart = octagon([({"x": 1}, 0), ({"x": -1}, 0), ({"y": 1}, 0), ({"y": -1}, 0)], ("x", "y"))
        linked = octagon([({"x": 1, "y": -1}, 0), ({"x": -1, "y": 1}, 0), ({"x": 1}, 0), ({"x": -1}, 0)], ("x", "y"))
        assert apart.packs[0] is not apart.packs[1] and linked.packs[0] is linked.packs[1]
        assert apart == linked and hash(apart) == hash(linked)
        assert apart != octagon([({"x": 1}, 0), ({"x": -1}, 0)], ("x", "y"))
        a = octagon([({"y": -1}, 2), ({"y": 1}, 2), ({"x": -1, "y": 1}, -1)], ("x", "y"))
        wide = a.widen(a.join(octagon([({"x": -1}, 0), ({"x": 1, "y": 1}, 1)], ("x", "y"))))
        # stored: x >= -1, y <= 2; the closure adds y - x <= 3
        assert not wide.closed and wide.m != wide.close().m
        ray = octagon([({"x": -1}, 1), ({"y": 1}, 2)], ("x", "y"))
        assert wide == ray and hash(wide) == hash(ray)

    def test_join_merges_packs_whose_bounds_move_apart(self):
        """{x = 0, y = 1} join {x = 1, y = 0} holds x + y == 1, which no
        pair of unary bounds says: x and y end in one pack. Where the
        bounds of y stay put, x and y stay apart."""
        def box(x_lo, x_hi, y_lo, y_hi):
            return octagon([({"x": 1}, x_hi), ({"x": -1}, -x_lo), ({"y": 1}, y_hi), ({"y": -1}, -y_lo)], ("x", "y"))

        j = box(0, 0, 1, 1).join(box(1, 1, 0, 0))
        assert j.packs[0] is j.packs[1]
        assert ({"x": 1, "y": 1}, 1) in dense_constraints(j) and ({"x": -1, "y": -1}, -1) in dense_constraints(j)
        apart = box(0, 0, 0, 1).join(box(1, 1, 0, 1))
        assert apart.packs[0] is not apart.packs[1]
        assert apart.m == box(0, 1, 0, 1).m

    @settings(max_examples=200, deadline=None)
    @given(oct_ops(NAMES4), oct_ops(NAMES4), st.permutations(range(4)))
    # y <= x in a box: only the entry of -x - (-y) is below its half-sum
    @example([("add", ({"x": 1}, 3)), ("add", ({"x": -1}, 0)), ("add", ({"y": 1}, 3)), ("add", ({"y": -1}, 0)),
              ("add", ({"x": -1, "y": 1}, 0))], [], [0, 1, 2, 3])
    def test_split_matches_the_scan_of_every_entry(self, p, q, order):
        """The dense view of a state and of a join, which hold both
        stored entries and half-sums, over three of the variables and
        over all four, falls into the packs that a scan of every entry
        finds."""
        for o in (build(p, NAMES4), build(p, NAMES4).join(build(q, NAMES4))):
            for members in (tuple(sorted(order[:3])), tuple(range(4))):
                if not o.empty:
                    m = o._view(members)
                    got = [(pk.vars, pk.m, pk.closed) for pk in _split(members, m, True)]
                    assert got == split_by_entries(members, m, True)


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
        e = e.add_eq(e.vars.row_of(lin))
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
    block of both sides through column-wise reduction, then _canon."""
    w = len(a.vars) + 1
    block = [[*r, *r] for r in a.rows] + [[*r, *[0] * w] for r in b.rows]
    return a._canon([row[w:] for row in rref_by_columns(block, 2 * w) if not any(row[:w])])


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
        assert [named(e.vars, r) for r in e.rows] == [({"x": 1, "y": 2}, 1)]

    @settings(max_examples=100, deadline=None)
    @given(aff_elem, aff_elem, st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    def test_shortcuts_agree_with_the_reduction(self, a, b, mults):
        """add_eq of an implied row, and join with an equal element,
        return the element itself, which is what the full reduction
        returns."""
        rows = (named(a.vars, r) for r in a.rows)
        implied = sum((Lin.make(c, -k) * m for (c, k), m in zip(rows, mults)), Lin.of(0))
        assert a.add_eq(a.vars.row_of(implied)) is a
        if a.empty:
            return
        same = AffineEqs(a.vars, a.rows)
        assert a.join(same) is a and a == full_join(a, same)
        assert b.empty or a.join(b) == full_join(a, b)

    @settings(max_examples=100, deadline=None)
    @given(aff_elem, aff_lin)
    def test_add_eq_inserts_its_row_with_no_canon(self, a, lin):
        """add_eq reduces its one row and inserts it into the echelon
        form, with no `_canon` call: the rows and pivots that `_canon`
        gives for the old rows and the new one. The row it is handed
        stays as it was."""
        row = a.vars.row_of(lin)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(AffineEqs, "_canon", lambda *args: pytest.fail("add_eq called _canon"))
            got = a.add_eq(row)
        assert row == a.vars.row_of(lin)
        want = a if a.empty else a._canon([*a.rows, row])
        assert got == want and got._pivots == want._pivots

    @settings(max_examples=100, deadline=None)
    @given(st.lists(aff_lin, max_size=4).flatmap(lambda ls: st.tuples(st.just(ls), st.permutations(ls))))
    def test_order_does_not_matter(self, pair):
        lins, shuffled = pair
        assert affine(lins) == affine(shuffled)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1), max_size=5),
            st.integers(0, 5),
            st.integers(-3, 3),
        )),
        st.booleans(),
    )
    def test_rref_matches_the_column_wise_reduction(self, case, every_column):
        """Over the variable columns with the constant riding along, as
        `_canon` reduces, or over every column, as the join's block is
        reduced; a row 0 = b is put in at any place, before later pivots
        too (b = 0 makes it a zero row). Both keep a row past the pivot rows
        exactly when the rows contradict each other, and otherwise give
        the same rows: the reduced form is unique. Contradicting rows
        may leave different multiples in the constant column."""
        n, rows, at, b = case
        rows.insert(at, [0] * n + [b])
        width = n + every_column
        got, cols = _rref([list(r) for r in rows], width)
        ref = rref_by_columns([list(r) for r in rows], width)
        pivots = [next(c for c, v in enumerate(r) if v) for r in ref if any(r[:width])]
        assert cols == pivots
        assert (len(got) > len(cols)) == (len(ref) > len(pivots))
        if len(ref) == len(pivots):
            assert list(map(list, got)) == list(map(list, ref))

    @settings(max_examples=100, deadline=None)
    @given(aff_elem, st.lists(st.booleans(), min_size=3, max_size=3), st.booleans())
    def test_join_shortcuts_match_the_zassenhaus_join(self, a, keep, top):
        """One side is top, or has some of the other side's rows: the
        join, either way round, is that of the Zassenhaus block."""
        assume(not a.empty)
        few = AffineEqs.top(a.vars) if top else a._canon([r for r, k in zip(a.rows, keep) if k])
        assert set(few.rows) <= set(a.rows)
        assert a.join(few) == full_join(a, few) == few.join(a) == full_join(few, a)

    @settings(max_examples=100, deadline=None)
    @given(aff_elem, st.sampled_from(NAMES), st.booleans(), aff_lin, st.integers(-3, 3))
    def test_assign_matches_the_temporary_column(self, a, v, free, lin, k):
        """v := v + k, a right side without v, and one with v, with v
        free or not, as the temporary column computes them."""
        if free:
            a = a.forget(v)
        for rhs in (Lin.var(v) + k, lin.drop(v), lin):
            assert a.assign(v, rhs) == assign_through_a_column(a, v, rhs)


# ------------------------------------------------------------------ product


class TestProduct:
    def test_affine_row_reaches_octagon(self):
        p = Product.top(("x", "y"))
        p = Product(p.oct, AffineEqs.top(p.vars).add_eq([1, -1, 0])).reduce()
        assert p.oct.leq(octagon([({"x": 1, "y": -1}, 0), ({"x": -1, "y": 1}, 0)], ("x", "y")))

    def test_octagon_pair_reaches_affine(self):
        # x + y + 2z == 0 keeps the part present; x == 3 reaches it
        p = Product.top(NAMES)
        p = Product(meet(p.oct, [({"x": 1}, 3), ({"x": -1}, -3)]), AffineEqs.top(NAMES).add_eq([1, 1, 2, 0])).reduce()
        assert p.aff == AffineEqs.top(NAMES).add_eq([1, 1, 2, 0]).add_eq([1, 0, 0, 3])


def product(ops, lins):
    return Product(build(ops), affine(lins))


def reduced_value(p):
    return p.oct.m, None if p.aff is None else (p.aff.rows, p.aff.empty)


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
        guarded = op in ("assume", "pin") or op == "widen" and args[-1] is not None
        if guarded and op != "pin":
            p = p.assume(nnf(args[-1]))
        assert reduced_value(p.reduce()) == reduced_value(full_reduce(Product(p.oct, p.aff))), op
        assert reduced_value(p.reduce()) == reduced_value(Product(p.oct, p.aff).reduce()), op
        if guarded:
            p = p.reduce()
        states.append(p)


def run_against_eager(names, steps):
    """Each step on a product and on the eager pair of
    `helpers.EagerProduct`, as the analysis takes them. After every step
    both have the same octagon, reduced and not (in the dense view), and
    the same formula."""
    states = [(Product.top(names), EagerProduct.top(names))]
    p, e = states[0]
    for op, *args in steps:
        if op == "assign":
            p, e = p.assign(*args), e.assign(*args)
        elif op == "forget":
            p, e = p.forget(args[0]), e.forget(args[0])
        elif op == "pin":
            up, down = ge0(args[0]), ge0(-args[0])
            p, e = p.assume(up).reduce().assume(down).reduce(), e.assume(up).assume(down)
        elif op != "assume":
            q, f = states[-1 - args[0] % len(states)]
            if op == "rewind":
                p, e = q, f
            elif op == "join":
                p, e = p.join(q), e.join(f)
            else:
                p, e = q.widen(p), f.widen(e)
        if op in ("assume", "widen") and args[-1] is not None:
            p, e = p.assume(args[-1]).reduce(), e.assume(args[-1])
        assert p.oct.m == e.oct.m, op
        assert p.reduce().oct.m == e.reduced().oct.m, op
        assert p.to_formula() == e.to_formula(), op
        states.append((p, e))


def fail(*args):
    raise AssertionError("Karr work on an absent part")


def constants(**values):
    """Top with each variable of `values` assigned its constant."""
    p = Product.top(NAMES4)
    for v, c in values.items():
        p = p.assign(v, Lin.of(c))
    return p


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
        assert ({"y": 1, "z": 1}, 1) in dense_constraints(p.oct)

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

    def test_equalities_the_affine_part_holds_are_not_read_again(self, monkeypatch):
        # x == y is read once, into an absent part; a bound on x changes
        # the pack of x and y, whose equality that part still holds
        p = Product.top(NAMES).assume(nnf(eq(x, y))).reduce()
        q = p.assume(nnf(le(x, Lin.of(3))))
        assert q.oct.packs[0] is not p.oct.packs[0]
        read = []
        add_eq = AffineEqs.add_eq
        monkeypatch.setattr(AffineEqs, "add_eq", lambda self, row: read.append(row) or add_eq(self, row))
        r = q.reduce()
        assert read == []
        assert r == full_reduce(Product(q.oct, q.aff))

    def test_equalities_held_through_a_join_are_not_read_again(self, monkeypatch):
        # both sides hold x == y in their octagons alone; the join keeps
        # it there, and no equality is read
        left = Product.top(NAMES).assume(land(eq(x, y), le(z, Lin.of(1)))).reduce()
        right = Product.top(NAMES).assume(land(eq(x, y), le(Lin.of(3), z))).reduce()
        monkeypatch.setattr(AffineEqs, "add_eq", fail)
        j = left.join(right)
        r = j.reduce()
        assert r.aff is None and ({"x": 1, "y": -1}, 0) in dense_constraints(r.oct)
        monkeypatch.undo()
        assert r == full_reduce(Product(j.oct, j.aff))

    def test_a_join_with_an_unreduced_side_reads_its_equalities(self):
        # on the left x == y is met after the last reduction, so only
        # its closed octagon shows it; the join reads it there
        left = Product.top(NAMES).assume(le(y, x)).reduce().assume(le(x, y))
        right = Product.top(NAMES).assume(land(eq(x, y), le(z, Lin.of(1)))).reduce()
        for j in (left.join(right), right.join(left), right.widen(left)):
            assert j.aff is None and built_part(j.reduce()).rows == ((1, -1, 0, 0),)

    def test_assignment_pushes_only_the_rows_that_name_its_variable(self, monkeypatch):
        # y == z and u == 2w (which keeps the part present) are pushed
        # and held before x := y + 1; after it only x - z == 1 names x
        # and is pushed, and the equalities of the pack that x joins
        # are held, so none is read
        names = ("x", "y", "z", "u", "w")
        y5, z5, u5, w5 = (Lin.var(v) for v in names[1:])
        p = Product.top(names).assume(land(eq(y5, z5), eq0(u5 - w5 * 2))).reduce()
        q = p.assign("x", y5 + 1)
        pushed, read = [], []
        add, add_eq = Octagon.add, AffineEqs.add_eq
        monkeypatch.setattr(Octagon, "add", lambda self, terms, k: pushed.append(terms) or add(self, terms, k))
        monkeypatch.setattr(AffineEqs, "add_eq", lambda self, row: read.append(row) or add_eq(self, row))
        r = q.reduce()
        assert sorted(i for terms in pushed for i, _ in terms) == [0, 0, 2, 2]
        assert read == []
        assert r == full_reduce(Product(q.oct, q.aff))
        assert q.aff.rows == ((1, 0, -1, 0, 0, 1), (0, 1, -1, 0, 0, 0), (0, 0, 0, 1, -2, 0)) and r.aff == q.aff

    def test_join_of_reduced_elements_need_not_be_reduced(self):
        # the affine hull of the two sides has the octagonal row
        # a - b == -1, but each side has it only as a combination of
        # three-variable rows, so neither octagon holds it: the join
        # keeps it as a present part, and only an exchange after the
        # join pushes it
        a, b, c, d = (Lin.var(v) for v in "abcd")
        top = Product.top(("a", "b", "c", "d"))
        left = top.assume(nnf(land(eq0(a - c - d + 1), eq0(b - c - d)))).reduce()
        right = top.assume(nnf(land(eq0(a - c + d + 1), eq0(b - c + d)))).reduce()
        j = left.join(right)
        row = ({"a": 1, "b": -1}, -1)
        assert row not in dense_constraints(j.oct)
        assert row in dense_constraints(full_reduce(j).oct)
        assert j.reduce() == full_reduce(j) != j


class TestLazyAffinePart:
    """The affine part is built only where an operation makes a row the
    octagon cannot hold, and each filter that decides a join without it
    (`backend/product.py`)."""

    @settings(max_examples=100, deadline=None)
    @given(product_steps(NAMES4, 4, 16))
    def test_every_step_matches_the_eager_product(self, steps):
        run_against_eager(NAMES4, steps)

    @settings(max_examples=60, deadline=None)
    @given(product_steps(NAMES4, 4, 16, coeffs=(1, -1), width=2))
    def test_steps_whose_only_wide_rows_come_from_joins(self, steps):
        run_against_eager(NAMES4, steps)

    @pytest.mark.slow
    @settings(max_examples=1500, deadline=None)
    @given(
        st.integers(2, 6).flatmap(lambda n: product_steps(NAMES8[:n], 16, 32)),
        st.integers(2, 6).flatmap(lambda n: product_steps(NAMES8[:n], 16, 32, coeffs=(1, -1), width=2)),
    )
    def test_long_sweep_against_the_eager_product(self, steps, octagonal_steps):
        run_against_eager(NAMES8, steps)
        run_against_eager(NAMES8, octagonal_steps)

    def test_a_wide_assignment_builds_the_part(self):
        p = Product.top(NAMES).assign("x", y * 2)
        assert p.aff == AffineEqs.top(NAMES).add_eq([1, -2, 0, 0])
        assert eq0(x - y * 2) in p.to_formula().args or ge0(x - y * 2) in p.to_formula().args

    def test_a_negation_is_exact_and_builds_no_part(self, monkeypatch):
        # from x == y, x := 3 - x: the octagon holds x + y == 3 itself
        p = Product.top(NAMES).assume(eq(x, y)).reduce()
        monkeypatch.setattr(AffineEqs, "assign", fail)
        q = p.assign("x", Lin.of(3) - x)
        monkeypatch.undo()
        assert q.aff is None and ({"x": 1, "y": 1}, 3) in dense_constraints(q.oct)
        e = EagerProduct.of(p).assign("x", Lin.of(3) - x)
        assert q.oct.m == e.oct.m and q.to_formula() == e.to_formula()

    def test_a_wide_assignment_of_constants_stays_absent(self, monkeypatch):
        p = Product.top(NAMES).assign("y", Lin.of(3))
        monkeypatch.setattr(AffineEqs, "assign", fail)
        q = p.assign("x", y * 2 + 1)
        assert q.aff is None and q.oct.bounds("x") == (7, 7)

    def test_a_wide_complementary_pair_builds_the_part(self):
        lin = x + y - z
        p = Product.top(NAMES).assume(land(ge0(lin), ge0(-lin)))
        assert p.aff == AffineEqs.top(NAMES).add_eq([1, 1, -1, 0])
        assert p.reduce().aff == p.aff

    def test_crossed_offsets_join_to_a_wide_row(self):
        # x = z + 1, y = z - 1 and x = z - 1, y = z + 1 differ in every
        # binary equality: the hull is built, and holds x + y == 2z
        left = Product.top(NAMES).assign("x", z + 1).assign("y", z - 1)
        right = Product.top(NAMES).assign("x", z - 1).assign("y", z + 1)
        for j in (left.join(right), left.widen(right)):
            assert j.aff == AffineEqs.top(NAMES).add_eq([1, 1, -2, 0])
            assert "x + y == 2*z" in str(j.to_formula())

    def test_constants_moving_by_different_magnitudes_join_to_a_wide_row(self):
        left, right = constants(x=0, z=0), constants(x=1, z=2)
        for j in (left.join(right), left.widen(right)):
            assert j.aff == Product.top(NAMES4).assign("z", x * 2).aff
            assert "2*x == z" in str(j.to_formula())

    def test_constants_moving_together_join_absent(self, monkeypatch):
        # {x=0, y=0} and {x=1, y=1}, w = 5 on both: the hull is x == y,
        # w == 5, which the octagon join holds
        left, right = constants(x=0, y=0, w=5), constants(x=1, y=1, w=5)
        monkeypatch.setattr(AffineEqs, "join", fail)
        monkeypatch.setattr(AffineEqs, "add_eq", fail)
        for j in (left.join(right), left.widen(right), right.join(left)):
            assert j.aff is None and ({"x": 1, "y": -1}, 0) in dense_constraints(j.oct)

    def test_equal_and_nested_equality_sets_join_absent(self, monkeypatch):
        # both sides x == y: equal sets; one side also y == z, so its
        # rows hold the other's: the hull is the smaller side
        left = Product.top(NAMES).assume(land(eq(x, y), le(z, Lin.of(0))))
        right = Product.top(NAMES).assume(land(eq(x, y), le(Lin.of(2), z)))
        nested = Product.top(NAMES).assume(land(eq(x, y), eq(y, z)))
        monkeypatch.setattr(AffineEqs, "join", fail)
        monkeypatch.setattr(AffineEqs, "add_eq", fail)
        for a, b in ((left, right), (left, nested), (nested, left)):
            for j in (a.join(b), a.widen(b)):
                assert j.aff is None and ({"x": 1, "y": -1}, 0) in dense_constraints(j.oct)

    def test_leq_against_an_absent_side_is_the_octagon_order(self, monkeypatch):
        p = Product.top(NAMES).assume(eq0(x + y - z * 2)).reduce()
        q = Product.top(NAMES).assume(le(x, Lin.of(3)))
        monkeypatch.setattr(AffineEqs, "leq", fail)
        assert p.aff is not None and not p.leq(q) and p.assume(le(x, Lin.of(2))).leq(q)
        monkeypatch.undo()
        assert not q.leq(p)


def guard_formulas(names):
    """Conditions as the parser never folds them: `not`, divisibility,
    true and false inside junctions, nested and repeated arguments.
    Their inequalities are +-(a base term) + c for c in -1..1, over
    octagonal and non-octagonal bases, so both kinds meet their
    complement (-b - 1 against b) and their opposite (-b against b)."""
    v = st.sampled_from(names)
    base = st.one_of(
        st.builds(lambda a, s: Lin.var(a, s), v, st.sampled_from((1, -1))),
        st.builds(lambda a, b, s: Lin.var(a) + Lin.var(b, s), v, v, st.sampled_from((1, -1))),
        st.builds(lambda a, b: Lin.var(a, 2) - Lin.var(b), v, v),
        st.just(Lin.make({n: 1 for n in names})),
    )

    def atoms(b):
        ge = st.builds(lambda s, c: ge0(b * s + c), st.sampled_from((1, -1)), st.integers(-1, 1))
        return st.one_of(ge, ge, ge, st.builds(lambda m: dvd(m, b), st.sampled_from((2, 3))))

    def junction(kind):
        return lambda args: Formula(kind, args=tuple(args))

    def nodes(children):
        args = st.lists(children, min_size=1, max_size=4)
        repeated = args.map(lambda a: a + a[:1])
        return st.one_of(
            st.one_of(args, repeated).map(junction("and")),
            st.one_of(args, repeated).map(junction("or")),
            children.map(lambda c: Formula("not", args=(c,))),
        )

    return st.lists(base, min_size=1, max_size=3).flatmap(
        lambda bases: st.recursive(
            st.one_of(st.sampled_from((TRUE, FALSE)), *(atoms(b) for b in bases)), nodes, max_leaves=8
        )
    )


def meet_against_nnf(p, f):
    """The compiled meet of f and of its negation against the eager pair
    that p stands for, met by walking their negation normal forms
    (`helpers.EagerProduct.meet_nnf`): the same octagon, the same affine
    part where the meet's is present, the same reduction and
    refutation, and self handed back exactly when the walk hands back
    its pair, so the reduction memo goes the same way; an empty p meets
    as the one bottom, which may be p itself."""
    e = EagerProduct.of(p)
    for neg in (False, True):
        got, want = compile_guard(f, p.vars, neg).meet(p), e.meet_nnf(nnf(f, neg))
        assert got.oct == want.oct and (p.is_empty() or (got is p) == (want is e)), (str(f), neg)
        assert got.aff is None or got.aff == want.aff, (str(f), neg)
        assert got.reduce().oct == want.reduced().oct and got.to_formula() == want.to_formula()
        state = AbstractState((), {(): p})
        assert state.refutes(compile_guard(f, p.vars, neg)) == want.reduced().is_empty()


class TestCompiledGuards:
    @settings(max_examples=25, deadline=None)
    @given(oct_ops(NAMES, 4), st.lists(aff_lin, max_size=2), guard_formulas(NAMES))
    def test_compiled_meet_is_the_meet_with_the_normal_form(self, ops, lins, f):
        meet_against_nnf(product(ops, lins).reduce(), f)

    @pytest.mark.slow
    @settings(max_examples=1000, deadline=None)
    @given(oct_ops(NAMES, 6), st.lists(aff_lin, max_size=3), guard_formulas(NAMES), st.booleans())
    def test_sweep_against_the_normal_form(self, ops, lins, f, reduced):
        p = product(ops, lins)
        meet_against_nnf(p.reduce() if reduced else p, f)

    def test_complements_and_constant_atoms(self):
        p = Product.top(NAMES).reduce()
        for f in (
            land(ge0(x - y), ge0(y - x)),  # octagonal: the octagon pins it too
            land(ge0(x * 2 - y), ge0(y - x * 2), ge0(z)),  # not octagonal: only the row
            Formula("and", args=(ge0(x - y), ge0(y - x - 1))),  # a literal and its negation
            Formula("or", args=(dvd(2, x), Formula("not", args=(dvd(2, x),)))),
            # built directly, so not folded: negated, each folds to a constant
            Formula("and", args=(Formula("ge", lin=Lin.of(-1)), ge0(x))),
            Formula("or", args=(Formula("ge", lin=Lin.of(0)), ge0(x))),
        ):
            meet_against_nnf(p, f)
        pinned = p.assume(land(ge0(x * 2 - y), ge0(y - x * 2)))
        assert pinned.aff == AffineEqs.top(NAMES).add_eq([2, -1, 0, 0])

    def test_a_conjunction_stops_at_its_first_empty_part(self, monkeypatch):
        p = Product.top(NAMES).assume(le(x, Lin.of(3))).reduce()
        met = []
        add = Octagon.add
        monkeypatch.setattr(Octagon, "add", lambda self, terms, k: met.append(terms) or add(self, terms, k))
        got = p.assume(land(le(Lin.of(5), x), le(y, z), ge0(y - z * 2), ge0(z * 2 - y)))
        assert met == [[(0, -1)]] and got.is_empty() and got.aff == p.aff

    def test_a_conjunction_with_no_octagonal_part_stops_at_an_empty_octagon(self):
        # the walk stops after x + y + z + 1 >= 0, which meets an empty
        # octagon as top, so the pair adds no row
        p = Product(octagon([({"x": 1}, -1), ({"x": -1}, 0)], NAMES), AffineEqs.top(NAMES))
        lin = x + y + z + 1
        meet_against_nnf(p, land(ge0(lin), ge0(-lin)))
        assert p.assume(land(ge0(lin), ge0(-lin))) is p

    def test_unknown_variables_are_refused_in_every_shape(self):
        p = Product.top(("x", "y"))
        for f in (ge0(x + z * 2 - 1), ge0(z - 1), eq0(x + y + z - 1), dvd(2, z), lor(ge0(x), ge0(z))):
            with pytest.raises(ValueError, match="unknown variable z"):
                p.assume(f)
            with pytest.raises(ValueError, match="unknown variable z"):
                compile_guard(f, p.vars, True)


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

    def test_assigning_a_flag_moves_buckets(self):
        # a flag is a partition key, not a number: its assignment moves
        # each bucket to the new value, joining those that meet there
        parts = {(v,): Product.top(("x",)).assume(eq(x, Lin.of(v))) for v in (0, 1)}
        (key, moved), = AbstractState(("f",), parts).assign("f", Lin.of(1)).parts.items()
        assert key == (1,)
        assert moved == parts[(0,)].join(parts[(1,)])


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
        assert [(a.line, a.proven) for a in analyze_loopfree_exact(sp).asserts] == [(6, True)]

    def test_exact_analysis_rejects_an_unreachable_loop(self):
        sp = transform_program(parse_program(DEAD_LOOP), IndexConfig())
        with pytest.raises(ExactError, match="line 4: loop"):
            analyze_loopfree_exact(sp)

    def test_exact_analysis_gives_up_past_the_path_cap(self, monkeypatch):
        # three independent branches: 8 live paths after the last merge
        src = "proc p(a: int, b: int, c: int) {\n  var r: int;\n"
        src += "".join(f"  if ({v} > 0) {{\n    r = r + 1;\n  }}\n" for v in "abc") + "}\n"
        sp = transform_program(parse_program(src), IndexConfig())
        monkeypatch.setattr(exact, "PATH_CAP", 8)
        assert len(analyze_loopfree_exact(sp).summaries) == 8
        monkeypatch.setattr(exact, "PATH_CAP", 7)
        with pytest.raises(ExactError, match="path count 8 exceeds cap 7"):
            analyze_loopfree_exact(sp)


class TestExactAsserts:
    def test_asserts_on_one_line_in_program_order(self):
        src = "proc p(x: int) {\n  var y: int;\n  assert(%s); assert(%s);\n}\n"
        for first, second, verdicts in (("x == 0", "y == 0", [False, True]), ("y == 0", "x == 0", [True, False])):
            res = analyze_loopfree_exact(transform_program(parse_program(src % (first, second)), IndexConfig()))
            assert [a.proven for a in res.asserts] == verdicts
            assert len({a.line for a in res.asserts}) == 1


class TestExactNames:
    def test_program_may_not_declare_an_output_name(self):
        # x' names the output of x in the relation; a declared scalar of
        # that name would make the relation false, ruling out every run
        src = "proc p() {\n  var x: int;\n  var x': int;\n  havoc x';\n  x = 1;\n}\n"
        with pytest.raises(CheckError, match="reserved for generated names"):
            parse_program(src)
