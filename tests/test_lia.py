"""Tests for the linear integer arithmetic stack.

Crafted cases pin down the constructors, parser, satisfiability
checker and quantifier elimination.
Randomized sections compare the solver and the eliminator against
brute-force evaluation over small integer boxes; quantifiers in those
cases carry explicit box bounds so enumeration decides them exactly.
"""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from arrayabs.lia import (
    FALSE,
    TRUE,
    BudgetError,
    Budget,
    Lin,
    dvd,
    eliminate_quantifiers,
    entails,
    eq,
    eq0,
    equivalent,
    ge0,
    implies,
    is_sat,
    land,
    le,
    lnot,
    lor,
    lt,
    ne,
    nnf,
    parse_formula,
    project,
    rename,
    simplify,
    split,
    subst,
    to_str,
)

import arrayabs
from helpers import box_sat, rand_formula

x, y, z = Lin.var("x"), Lin.var("y"), Lin.var("z")


def eliminate_forall(f, bound):
    """Quantifier-free form of forall `bound`. f, as not exists not."""
    return simplify(nnf(lnot(eliminate_quantifiers(lnot(f), bound))))


# ---------------------------------------------------------------- Lin


class TestLin:
    def test_arithmetic(self):
        t = 2 * x + y - 3
        assert t.coeff("x") == 2 and t.coeff("y") == 1 and t.const == -3
        assert (t - t).is_const() and (t - t).const == 0
        assert (-t).coeff("x") == -2

    def test_vars_sorted_and_zero_dropped(self):
        t = Lin.make({"b": 1, "a": 2, "c": 0}, 5)
        assert t.vars() == ("a", "b")

    def test_subst(self):
        t = 2 * x + y
        s = t.subst({"x": y + 1})
        assert s == 3 * y + 2

    def test_evaluate(self):
        assert (2 * x - y + 1).evaluate({"x": 3, "y": 7}) == 0


# --------------------------------------------------------- constructors


class TestConstructors:
    def test_ge0_constant_fold(self):
        assert ge0(Lin.of(0)) is TRUE
        assert ge0(Lin.of(-1)) is FALSE

    def test_ge0_gcd_tightening(self):
        # 2x - 3 >= 0 over Z means x >= 2
        f = ge0(2 * x - 3)
        assert f == ge0(x - 2)

    def test_dvd_normalization(self):
        assert dvd(1, x + 3) is TRUE
        assert dvd(4, Lin.of(8)) is TRUE
        assert dvd(4, Lin.of(6)) is FALSE
        # 4 | 2x + 6 reduces to 2 | x + 3
        assert dvd(4, 2 * x + 6) == dvd(2, x + 3)
        # coefficients are taken mod the modulus
        assert dvd(3, 4 * x) == dvd(3, x)

    def test_land_lor_structure(self):
        a, b = ge0(x), ge0(y)
        assert land(a, land(b, TRUE)) == land(a, b)
        assert lor(a, FALSE, a) == a
        assert land(a, FALSE, b) is FALSE
        assert lor(a, TRUE) is TRUE
        assert land() is TRUE and lor() is FALSE

    def test_complementary_literals(self):
        f = dvd(2, x)
        assert land(f, lnot(f)) is FALSE
        assert lor(f, lnot(f)) is TRUE

    def test_lnot_on_inequality_stays_atomic(self):
        f = lnot(ge0(x))  # not(x >= 0) is x <= -1
        assert f == ge0(-x - 1)

    def test_eq_le_lt(self):
        assert eq0(x - y) == land(ge0(x - y), ge0(y - x))
        assert le(x, y) == ge0(y - x)
        assert lt(x, y) == ge0(y - x - 1)
        m = is_sat(ne(x, x))
        assert m is None

    def test_nnf_pushes_negation(self):
        f = lnot(land(ge0(x), lnot(dvd(2, y))))
        g = nnf(f)
        bad = [h for h in g.walk() if h.kind == "not" and h.args[0].kind != "dvd"]
        assert g.kind == "or" and not bad

    def test_simplify_merges_bounds(self):
        f = land(ge0(x - 1), ge0(x - 5), ge0(x))
        assert simplify(f) == ge0(x - 5)
        g = lor(ge0(x - 1), ge0(x - 5))
        assert simplify(g) == ge0(x - 1)

    def test_simplify_detects_empty_interval(self):
        assert simplify(land(ge0(x - 5), ge0(-x + 2))) is FALSE

    def test_subst_reaches_every_atom(self):
        f = land(ge0(x), lor(dvd(2, x + y), ge0(z - x)))
        assert subst(f, {"x": y + 1}) == land(ge0(y + 1), lor(dvd(2, 2 * y + 1), ge0(z - y - 1)))

    def test_rename(self):
        f = land(ge0(x), dvd(2, y))
        assert rename(f, {"x": "u"}).free_vars() == ("u", "y")

    def test_free_vars_first_occurrence_order(self):
        f = land(ge0(y - x), ge0(z))
        assert f.free_vars() == ("x", "y", "z") or f.free_vars() == ("y", "x", "z")


# --------------------------------------------------------------- parser


class TestPickling:
    def test_formula_unpickled_under_another_hash_seed_hashes_afresh(self):
        # pickled under one string-hash seed and loaded under another, a
        # formula hashes as a fresh copy does there, so land folds the two
        env = {**os.environ, "PYTHONPATH": str(Path(arrayabs.__file__).resolve().parents[1])}
        dump = (
            "import pickle, sys; from arrayabs.lia import parse_formula; "
            "sys.stdout.buffer.write(pickle.dumps(parse_formula('x - y >= 1')))"
        )
        load = (
            "import pickle, sys; from arrayabs.lia import land, parse_formula; "
            "f, g = pickle.loads(sys.stdin.buffer.read()), parse_formula('x - y >= 1'); "
            "print(f == g, hash(f) == hash(g), land(f, g) == g)"
        )

        def run(code, seed, data=None):
            return subprocess.run(
                [sys.executable, "-c", code], input=data, env={**env, "PYTHONHASHSEED": seed},
                capture_output=True, check=True,
            ).stdout

        assert run(load, "2", run(dump, "1")).split() == [b"True", b"True", b"True"]


class TestParser:
    def test_basic(self):
        f = parse_formula("2*x - y >= 3 && (y < 4 || x == y)")
        assert f.kind == "and"

    def test_dvd_quantifier_and_read_text_is_rejected(self):
        # the condition grammar has no divisibility or quantifier text,
        # and an array read has no arithmetic counterpart
        for bad in ["2 | x + y", "forall i: i >= 0", "exists j: j == 1", "t[0] >= 1"]:
            with pytest.raises(ValueError):
                parse_formula(bad)

    def test_quantifiers_and_implication(self):
        # forall i. 0 <= i ==> exists j. j == i + 1
        i, j = Lin.var("i"), Lin.var("j")
        some = eliminate_quantifiers(eq(j, i + 1), ["j"])
        assert eliminate_forall(implies(le(Lin.of(0), i), some), ["i"]) is TRUE

    def test_implication_right_assoc(self):
        f = parse_formula("x >= 0 ==> x >= 1 ==> x >= 2")
        g = implies(ge0(x), implies(ge0(x - 1), ge0(x - 2)))
        assert f == g

    def test_errors(self):
        for bad in ["x >", "x * y >= 0", "(x >= 1", "3 & 4", "x | y >= 0"]:
            with pytest.raises(ValueError):
                parse_formula(bad)

    def test_bare_identifier_is_rejected(self):
        # every variable is an integer: a bare identifier is no formula
        for bad in ["hit && x >= 0", "hit", "x >= 0 || hit"]:
            with pytest.raises(ValueError):
                parse_formula(bad)

    def test_primed_and_generated_names(self):
        f = parse_formula("a' >= 0 && t$0$v == a'")
        assert "a'" in f.free_vars() and "t$0$v" in f.free_vars()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_print_parse_round_trip(self, seed):
        rng = random.Random(seed)
        f = rand_formula(rng, ["x", "y", "z"], depth=2)
        assume(all(a.kind != "dvd" for a in f.atoms()))  # dvd has no text form
        assert parse_formula(to_str(f)) == f


# ------------------------------------------------------------- solving


class TestSat:
    def test_model_returned_and_valid(self):
        f = land(ge0(x - 3), ge0(-x + 7), dvd(3, x + 1))
        m = is_sat(f)
        assert m is not None and f.evaluate(m)

    def test_unsat_interval(self):
        assert is_sat(land(ge0(x - 3), ge0(-x + 2))) is None

    def test_unsat_parity(self):
        f = land(dvd(2, x), dvd(2, x + 1))
        assert is_sat(f) is None

    def test_equality_chain(self):
        f = land(eq(x, y + 1), eq(y, z - 2), eq0(z - 5))
        m = is_sat(f)
        assert m == {"x": 4, "y": 3, "z": 5}

    def test_negated_divisibility(self):
        f = land(lnot(dvd(2, x)), ge0(x), ge0(-x + 1))
        m = is_sat(f)
        assert m is not None and m["x"] == 1

    def test_disjunction_split_past_the_quick_model(self):
        # seven variables, so no quick model is tried on the whole
        # formula; a strict cycle is unsatisfiable, but only elimination
        # shows it, so the first disjunct must be refuted before the
        # second one is solved
        a, b, c, d, e, f, g = (Lin.var(v) for v in "abcdefg")

        def cycle(*vs):
            return land(*(lt(u, v) for u, v in zip(vs, vs[1:] + vs[:1])))

        sat = land(lt(d, e), le(Lin.of(3), f), eq(g, d + f))
        formula = lor(land(cycle(a, b, c), ge0(g)), sat)
        assert simplify(nnf(formula)).kind == "or"
        m = is_sat(formula)
        assert m is not None and formula.evaluate(m) and sat.evaluate(m)
        assert is_sat(lor(cycle(a, b, c), cycle(d, e, f, g))) is None

    def test_split_meets_at_every_node_and_splits_nested_disjunctions_first(self):
        # the theory refutes b and d; the disjunction nested in the
        # second branch splits before the pending f || g
        a, b, c, d, e, f, g = (ge0(Lin.var(v)) for v in "abcdefg")
        met = []

        def meet(state, lits):
            met.append(lits)
            return None if b in lits or d in lits else state + tuple(lits)

        budget = Budget(100)
        q = land(a, lor(b, land(c, lor(d, e))), lor(f, g))
        assert split(q, meet, (), budget) == (a, c, e, f)
        assert met == [[a], [b], [c], [d], [e], [f]]
        assert budget.left == 100 - len(met)  # one step per node

    def test_all_free_vars_assigned(self):
        f = lor(ge0(x), ge0(y))
        m = is_sat(f)
        assert m is not None and set(m) == {"x", "y"}

    def test_deterministic(self):
        f = land(ge0(x + 10), dvd(7, x - 2), ge0(y - x))
        assert is_sat(f) == is_sat(f)

    def test_entails(self):
        gamma = land(ge0(x - 2), ge0(y - x))
        assert entails(gamma, ge0(y - 2))
        assert not entails(gamma, ge0(y - 3))

    def test_entails_with_quantified_goal(self):
        gamma = ge0(x - 1)
        psi = eliminate_quantifiers(land(eq(x, 2 * y), dvd(2, x)), ["y"])
        assert not entails(gamma, psi)
        assert entails(land(gamma, dvd(2, x)), psi)

    def test_equivalent(self):
        assert equivalent(ge0(2 * x - 4), ge0(x - 2))
        assert not equivalent(ge0(x), ge0(x - 1))

    def test_budget_is_explicit(self):
        a, b, c = Lin.var("a"), Lin.var("b"), Lin.var("c")
        cycle = land(ge0(a - b), ge0(b - c), ge0(c - a - 1))  # unsat, needs elimination
        with pytest.raises(BudgetError):
            is_sat(cycle, Budget(2))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10**9))
    def test_against_box_enumeration(self, seed):
        rng = random.Random(seed)
        names = ["a", "b", "c", "d"][: rng.randint(1, 4)]
        f = rand_formula(rng, names, depth=2)
        m = is_sat(f)
        if m is None:
            assert box_sat(f, names, -6, 6) is None
        else:
            assert f.evaluate(m)


# ------------------------------------------------------------------ QE


class TestQE:
    def test_interval_projection(self):
        f = land(ge0(x - Lin.var("a")), ge0(Lin.var("b") - x))
        g = eliminate_quantifiers(f, ["x"])
        assert equivalent(g, ge0(Lin.var("b") - Lin.var("a")))

    def test_forall_tautology(self):
        assert eliminate_forall(implies(ge0(x - 1), ge0(x)), ["x"]) is TRUE

    def test_forall_false(self):
        assert eliminate_forall(ge0(x), ["x"]) is FALSE

    def test_divisibility_projection(self):
        # exists x. y == 2x  is  2 | y
        g = eliminate_quantifiers(eq(Lin.var("y"), 2 * x), ["x"])
        assert equivalent(g, dvd(2, Lin.var("y")))

    def test_alternation(self):
        # forall x. exists y. y >= x  holds over Z
        assert eliminate_forall(eliminate_quantifiers(ge0(y - x), ["y"]), ["x"]) is TRUE
        # exists y. forall x. y >= x  does not
        assert eliminate_quantifiers(eliminate_forall(ge0(y - x), ["x"]), ["y"]) is FALSE

    def test_pinned_variable_shortcut(self):
        g = eliminate_quantifiers(land(eq(x, y + 3), dvd(5, x)), ["x"])
        assert equivalent(g, dvd(5, y + 3))

    def test_result_quantifier_free_and_free_vars_subset(self):
        g = eliminate_quantifiers(land(ge0(x - y), ge0(z - x)), ["x"])
        assert set(g.free_vars()) <= {"y", "z"}

    def test_eliminate_exists_list(self):
        f = land(ge0(x - 1), ge0(y - x - 1), ge0(z - y - 1))
        g = eliminate_quantifiers(f, ["x", "y"])
        assert equivalent(g, ge0(z - 3))

    def test_project(self):
        f = land(eq(x, y), ge0(y - 4))
        g = project(f, ["x"])
        assert equivalent(g, ge0(x - 4))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**9))
    def test_against_box_enumeration(self, seed):
        rng = random.Random(seed)
        nv = rng.randint(2, 4)
        names = ["a", "b", "c", "d"][:nv]
        inner = rand_formula(rng, names, depth=2)
        qv = rng.sample(names, rng.randint(1, nv - 1))
        bounds = [land(ge0(Lin.var(v) + 4), ge0(-Lin.var(v) + 4)) for v in qv]
        body = land(inner, *bounds)
        g = eliminate_quantifiers(body, qv)
        h = eliminate_forall(implies(land(*bounds), inner), qv)
        free = [v for v in names if v not in qv]
        for vals in itertools.product(range(-4, 5), repeat=len(free)):
            env = dict(zip(free, vals))
            inside = [
                inner.evaluate({**env, **dict(zip(qv, qvals))})
                for qvals in itertools.product(range(-4, 5), repeat=len(qv))
            ]
            assert g.evaluate(env) == any(inside)
            assert h.evaluate(env) == all(inside)
