"""Tests for the mini array language.

Covers parsing, the static checks, printing round trips, access
decomposition, and the enumerating interpreter. Decomposition is
validated against the interpreter: the rewritten program must reach
exactly the same final states as the original once the fresh
temporaries are projected away.
"""

import pytest

from arrayabs.lang import (
    ArrRead,
    ArrWrite,
    Assert,
    Assign,
    Assume,
    Bounds,
    CheckError,
    ConcreteState,
    EnumerationBudgetError,
    Havoc,
    If,
    Num,
    ParseError,
    Var,
    While,
    cond_reads,
    decompose_accesses,
    enumerate_executions,
    expr_reads,
    parse_program,
    run_program,
    to_source,
    walk_stmts,
)

INIT = """
proc init(n: int) {
  array t[n]: int;
  var i: int;
  i = 0;
  while (i < n) {
    t[i] = 0;
    i = i + 1;
  }
} ensures forall k: 0 <= k && k < n ==> t[k] == 0;
"""

SENTINEL = """
proc sentinel(n: int, p: int) {
  array t[n]: int;
  var i: int;
  assume(0 <= p && p < n);
  t[p] = 0;
  i = 0;
  while (t[i] != 0) {
    i = i + 1;
  }
  assert(i <= p);
}
"""

COPY = """
proc copy(n: int) {
  array a[n]: int;
  array b[n]: int;
  var i: int;
  var r: int;
  i = 0;
  while (i < n) {
    r = a[i];
    b[i] = r;
    i = i + 1;
  }
} ensures forall k: 0 <= k && k < n ==> b[k] == a[k];
"""


class TestParse:
    def test_basic_shape(self):
        p = parse_program(INIT)
        assert p.name == "init"
        assert p.params == ("n",)
        assert p.locals == ("i",)
        assert [a.name for a in p.arrays] == ["t"]
        assert p.target is not None and p.target.indices == ("k",)

    def test_statement_kinds(self):
        p = parse_program(
            """
            proc m(n: int) {
              array t[n]: int;
              var x: int;
              havoc x;
              assume(x >= 0);
              if (x < n) { t[x] = 1; } else { x = 0; }
              assert(x >= 0);
            }
            """
        )
        kinds = [type(s) for s in p.body]
        assert kinds == [Havoc, Assume, If, Assert]

    def test_colors_are_constants(self):
        p = parse_program(
            """
            proc m(n: int) {
              array t[n]: color;
              var c: int;
              c = BLUE;
              t[0] = RED;
              if (c == WHITE) { c = 0; }
            }
            """
        )
        assert p.body[0] == Assign("c", Num(0))
        assert p.body[1].value == Num(2)

    def test_multidim_and_multidecl(self):
        p = parse_program(
            """
            proc m(n: int, m: int) {
              array a[n][m]: int;
              var i, j: int;
              a[i][j] = 5;
            }
            """
        )
        assert p.locals == ("i", "j")
        assert p.arrays[0].dims and len(p.arrays[0].dims) == 2
        assert p.body[0].index == (Var("i"), Var("j"))

    def test_old_only_in_ensures(self):
        parse_program(
            """
            proc m(n: int) {
              array t[n]: int;
              t[0] = 1;
            } ensures forall k: old(t[k]) == t[k] || k == 0;
            """
        )
        with pytest.raises(CheckError, match="only allowed in ensures"):
            parse_program(
                """
                proc m(n: int) {
                  array t[n]: int;
                  var x: int;
                  x = old(t[0]);
                }
                """
            )

    def test_nonlinear_product_rejected(self):
        with pytest.raises(ParseError):
            parse_program("proc m(n: int) { var i: int; i = i * n; }")

    def test_literal_factor_allowed_both_sides(self):
        p = parse_program("proc m(n: int) { var i: int; i = 2 * n - n * 3; }")
        assert to_source(p)

    def test_missing_braces(self):
        with pytest.raises(ParseError):
            parse_program("proc m(n: int) { var i: int; while (i < n) i = i + 1; }")

    def test_comments_ignored(self):
        p = parse_program(
            """
            // header comment
            proc m(n: int) {
              var i: int; // trailing
              i = 0;
            }
            """
        )
        assert p.body == (Assign("i", Num(0)),)


class TestChecks:
    def check(self, src):
        with pytest.raises(CheckError):
            parse_program(src)

    def test_undeclared_identifier(self):
        self.check("proc m(n: int) { x = 0; }")

    def test_duplicate_declaration(self):
        self.check("proc m(n: int) { var n: int; }")

    def test_scalar_used_as_array(self):
        self.check("proc m(n: int) { var i: int; i[0] = 1; }")

    def test_array_used_as_scalar(self):
        self.check("proc m(n: int) { array t[n]: int; var i: int; i = t; }")

    def test_arity_mismatch(self):
        self.check("proc m(n: int) { array t[n][n]: int; t[0] = 1; }")

    def test_parameter_immutable(self):
        self.check("proc m(n: int) { n = 0; }")
        self.check("proc m(n: int) { havoc n; }")

    def test_dim_must_be_param_or_literal(self):
        self.check("proc m(n: int) { var i: int; array t[i]: int; }")

    def test_color_not_declarable(self):
        self.check("proc m(n: int) { var BLUE: int; }")

    def test_target_index_shadows(self):
        self.check(
            """
            proc m(n: int) {
              array t[n]: int;
              var k: int;
            } ensures forall k: t[k] == 0;
            """
        )


class TestPrint:
    PROGRAMS = [
        INIT,
        SENTINEL,
        COPY,
        """
        proc edge(n: int) {
          array t[n]: color;
          var x, y: int;
          havoc x;
          assume(x == BLUE || x == WHITE ==> n > 0);
          if (!(x < 0) && n != 3) {
            t[x - 1] = -2;
          } else {
            y = -x + 2 * n - 4;
          }
          while (true) {
            y = y - 1;
            assume(false);
          }
          assert(y <= x ==> x >= y);
        }
        """,
        """
        proc mat(n: int, m: int) {
          array a[n][m]: int;
          var i: int;
          a[i][i + 1] = a[0][0] + 3;
        } ensures forall p, q: a[p][q] >= 0;
        """,
        # negative literal factors print in parentheses
        """
        proc neg(n: int) {
          var i: int;
          i = n - (-2)*n;
          i = (-3)*n;
        }
        """,
        # a product in factor position prints in parentheses
        """
        proc nested(n: int) {
          var i: int;
          i = 2*(3*n);
          i = (2*n)*3;
        }
        """,
    ]

    @pytest.mark.parametrize("src", PROGRAMS)
    def test_round_trip(self, src):
        p = parse_program(src)
        out = to_source(p)
        assert parse_program(out) == p
        # printing is a fixpoint on its own output
        assert to_source(parse_program(out)) == out


def _assert_elementary(p):
    for s in walk_stmts(p.body):
        if isinstance(s, Assign):
            if isinstance(s.expr, ArrRead):
                assert all(isinstance(i, Var) for i in s.expr.index), s
            else:
                assert not list(expr_reads(s.expr)), s
        elif isinstance(s, ArrWrite):
            assert all(isinstance(i, Var) for i in s.index), s
            assert isinstance(s.value, (Var, Num)), s
        elif isinstance(s, (If, While, Assume, Assert)):
            assert not list(cond_reads(s.cond)), s


def _equiv(p, d, bounds):
    keep_s = p.params + p.locals
    keep_a = tuple(a.name for a in p.arrays)
    fa = {s.project(keep_s, keep_a) for s in enumerate_executions(p, bounds)}
    fb = {s.project(keep_s, keep_a) for s in enumerate_executions(d, bounds)}
    assert fa == fb


class TestDecompose:
    def test_elementary_program_unchanged(self):
        p = parse_program(COPY)
        assert decompose_accesses(p) == p

    def test_read_in_condition_hoisted(self):
        p = parse_program(SENTINEL)
        d = decompose_accesses(p)
        _assert_elementary(d)
        # loop condition becomes a temp, refreshed at the end of the body
        loop = [s for s in d.body if isinstance(s, While)][0]
        assert isinstance(loop.body[-1], Assign)
        assert isinstance(loop.body[-1].expr, ArrRead)
        _equiv(p, d, Bounds({"n": [2, 3], "p": [0, 1, 2]}, values=(0, 1)))

    def test_nested_reads(self):
        p = parse_program(
            """
            proc m(n: int) {
              array f[n]: int;
              array g[n]: int;
              var i, x: int;
              assume(0 <= i && i < n);
              x = f[g[i]];
            }
            """
        )
        d = decompose_accesses(p)
        _assert_elementary(d)
        reads = [s for s in walk_stmts(d.body) if isinstance(s, Assign) and isinstance(s.expr, ArrRead)]
        assert [r.expr.array for r in reads] == ["g", "f"]
        _equiv(p, d, Bounds({"n": [2]}, values=(0, 1)))

    def test_compound_index_and_value(self):
        p = parse_program(
            """
            proc m(n: int) {
              array t[n]: int;
              var i: int;
              assume(1 <= i && i < n);
              t[i - 1] = t[i] + 1;
            }
            """
        )
        d = decompose_accesses(p)
        _assert_elementary(d)
        _equiv(p, d, Bounds({"n": [2, 3]}, values=(0, 1)))

    def test_read_under_if_and_assert(self):
        p = parse_program(
            """
            proc m(n: int) {
              array t[n]: int;
              var i: int;
              assume(0 <= i && i < n);
              if (t[i] == 0) { t[i] = 1; }
              assert(t[i] >= 0);
            }
            """
        )
        d = decompose_accesses(p)
        _assert_elementary(d)
        _equiv(p, d, Bounds({"n": [1, 2]}, values=(0, 1)))

    def test_fresh_names_avoid_collisions(self):
        p = parse_program(
            """
            proc m(n: int) {
              array t[n]: int;
              var tmp0, i: int;
              assume(0 <= i && i < n);
              tmp0 = t[i] + 1;
            }
            """
        )
        d = decompose_accesses(p)
        assert "tmp1" in d.locals and d.locals.count("tmp0") == 1
        _equiv(p, d, Bounds({"n": [1, 2]}, values=(0, 1)))

    def test_decompose_idempotent(self):
        p = parse_program(SENTINEL)
        d = decompose_accesses(p)
        assert decompose_accesses(d) == d


class TestInterp:
    def test_init_forces_zeroes(self):
        p = parse_program(INIT)
        finals = enumerate_executions(p, Bounds({"n": [3]}))
        assert len(finals) >= 1
        for s in finals:
            assert s.status == "ok"
            assert s.scalar_dict()["i"] == 3
            assert s.array_dict("t") == {(0,): 0, (1,): 0, (2,): 0}

    def test_initial_array_contents_enumerated(self):
        p = parse_program("proc m(n: int) { array t[n]: int; var x: int; x = 0; }")
        finals = enumerate_executions(p, Bounds({"n": [2]}, values=(0, 1)))
        tables = {tuple(sorted(s.array_dict("t").items())) for s in finals}
        assert len(tables) == 4

    def test_havoc_branches(self):
        p = parse_program("proc m() { var x: int; havoc x; }")
        finals = enumerate_executions(p, Bounds({}, values=(0, 1, 2)))
        assert sorted(s.scalar_dict()["x"] for s in finals) == [0, 1, 2]

    def test_assume_prunes(self):
        p = parse_program("proc m() { var x: int; havoc x; assume(x == 1); }")
        finals = enumerate_executions(p, Bounds({}, values=(0, 1, 2)))
        assert [s.scalar_dict()["x"] for s in finals] == [1]

    def test_assume_false_no_finals(self):
        p = parse_program("proc m() { assume(false); }")
        assert enumerate_executions(p, Bounds({})) == ()

    def test_assert_failure_recorded(self):
        p = parse_program("proc m() { var x: int; havoc x; assert(x == 0); x = 9; }")
        finals = enumerate_executions(p, Bounds({}, values=(0, 1)))
        st = {s.status: s.scalar_dict()["x"] for s in finals}
        assert st["assert-failed"] == 1  # stops at the failure point
        assert st["ok"] == 9

    def test_out_of_bounds_recorded(self):
        p = parse_program(
            """
            proc m(n: int) {
              array t[n]: int;
              var x: int;
              x = t[n];
            }
            """
        )
        finals = enumerate_executions(p, Bounds({"n": [1]}, values=(0,)))
        assert {s.status for s in finals} == {"out-of-bounds"}

    def test_negative_index_out_of_bounds(self):
        p = parse_program("proc m(n: int) { array t[n]: int; t[0 - 1] = 0; }")
        finals = enumerate_executions(p, Bounds({"n": [1]}, values=(0,)))
        assert {s.status for s in finals} == {"out-of-bounds"}

    def test_loop_runs_to_completion(self):
        p = parse_program(
            """
            proc m(n: int) {
              var i, s: int;
              i = 0;
              s = 0;
              while (i < n) {
                s = s + 2;
                i = i + 1;
              }
            }
            """
        )
        (f,) = enumerate_executions(p, Bounds({"n": [4]}))
        assert f.scalar_dict()["s"] == 8

    def test_if_else_both_sides(self):
        p = parse_program(
            """
            proc m() {
              var x, y: int;
              havoc x;
              if (x == 0) { y = 10; } else { y = 20; }
            }
            """
        )
        finals = enumerate_executions(p, Bounds({}, values=(0, 1)))
        assert sorted(s.scalar_dict()["y"] for s in finals) == [10, 20]

    def test_budget_error(self):
        p = parse_program("proc m() { var i: int; while (i >= 0) { i = i + 1; } }")
        with pytest.raises(EnumerationBudgetError):
            enumerate_executions(p, Bounds({}, max_steps=500))

    def test_deterministic_order(self):
        p = parse_program(SENTINEL)
        b = Bounds({"n": [2], "p": [0, 1]}, values=(0, 1))
        assert enumerate_executions(p, b) == enumerate_executions(p, b)

    def test_run_program_single_state(self):
        p = parse_program("proc m(n: int) { array t[n]: int; var i: int; t[0] = n; i = t[0]; }")
        finals = run_program(p, {"n": 2}, {"t": {(0,): 7, (1,): 7}})
        assert len(finals) == 1
        assert finals[0].scalar_dict()["i"] == 2
        assert finals[0].array_dict("t") == {(0,): 2, (1,): 7}

    def test_long_loop_runs_without_recursion(self):
        p = parse_program("proc m() { var i: int; i = 0; while (i < 2000) { i = i + 1; } }")
        (f,) = run_program(p, {}, {})
        assert f.status == "ok" and f.scalar_dict() == {"i": 2000}

    def test_missing_parameter_bounds(self):
        p = parse_program("proc m(n: int) { var i: int; i = n; }")
        with pytest.raises(ValueError):
            enumerate_executions(p, Bounds({}))

    def test_states_are_ordered_values(self):
        a = ConcreteState.make("ok", {"x": 1}, {})
        b = ConcreteState.make("ok", {"x": 2}, {})
        assert a < b and a == ConcreteState.make("ok", {"x": 1}, {})

    def test_final_states_share_equal_pairs(self):
        """The final states of one enumeration hold one object per equal
        (name, value) or (index, value) pair, and no per-instance dict."""
        p = parse_program(SENTINEL)
        finals = enumerate_executions(p, Bounds({"n": [2], "p": [0, 1]}, values=(0, 1)))
        pairs = [kv for s in finals for kv in s.scalars] + [kv for s in finals for _, f in s.arrays for kv in f]
        assert len({id(kv) for kv in pairs}) == len(set(pairs)) < len(pairs)
        assert not hasattr(finals[0], "__dict__")
