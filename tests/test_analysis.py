"""The partitioned abstract interpretation of transformed programs.

Assert verdicts on a chain of array loops with bounds checks and on a
loop whose head needs the round after widening, and soundness against
the enumerating interpreter: every concrete final state of a
transformed program satisfies the exit formula.
"""

import signal
import sys

import pytest

from arrayabs.backend import AffineEqs, abstract, analyze_scalar, octagon
from arrayabs.lang import Bounds, decompose_accesses, enumerate_executions, parse_condition, parse_program
from arrayabs.lang.interp import OK
from arrayabs.lia import parse_formula
from arrayabs.transform import ArrayCells, IndexConfig, ObserverSpec, ObsFlag, transform_program

# three loops: fill a0, copy a0 into a1, fill a2; the last loop's
# comparison is `<` in the valid program and `<=` in its off-by-one twin
CHAIN = """
proc chain(n: int) {
  array a0[n]: int;
  array a1[n]: int;
  array a2[n]: int;
  var i: int;
  var r: int;
  i = 0;
  while (i < n) {
    a0[i] = 2;
    i = i + 1;
  }
  i = 0;
  while (i < n) {
    r = a0[i];
    a1[i] = r;
    i = i + 1;
  }
  i = 0;
  while (i %s n) {
    a2[i] = -1;
    i = i + 1;
  }
}
"""


@pytest.mark.parametrize("cmp, last_proven", [("<", True), ("<=", False)])
def test_bounds_asserts_of_a_loop_chain(cmp, last_proven):
    # one assert per access: the a0 write, the a0 read, the a1 write
    # and, inside the last loop, the a2 write
    p = decompose_accesses(parse_program(CHAIN % cmp))
    cfg = IndexConfig(arrays={f"a{j}": ArrayCells(1) for j in range(3)}, bounds_checks=True)
    asserts = [(a.line, a.proven) for a in analyze_scalar(transform_program(p, cfg)).asserts]
    assert asserts == [(10, True), (15, True), (16, True), (21, last_proven)]


SEARCH = """
proc search(n: int, x: int) {
  array t[n]: int;
  var i: int;
  i = 0;
  while (i < n && t[i] != x) {
    i = i + 1;
  }
}
"""


def test_bounds_asserts_of_a_read_after_a_short_circuit():
    # && reads t[i] only where i < n held, and decomposition keeps that
    # order, before the loop and at the end of its body: both asserts hold
    p = decompose_accesses(parse_program(SEARCH))
    cfg = IndexConfig(arrays={"t": ArrayCells(1)}, bounds_checks=True)
    assert [a.proven for a in analyze_scalar(transform_program(p, cfg)).asserts] == [True, True]


def wide_chain(k, cmp_last):
    """k loops over arrays a0..a<k-1>: even loops fill their array with
    a constant, odd loops copy the array before theirs; the last loop
    compares with cmp_last. 2k cells plus n, i and r are 3 + 2k scalar
    variables."""
    lines = ["proc chain(n: int) {", *(f"  array a{j}[n]: int;" for j in range(k)), "  var i: int;", "  var r: int;"]
    for j in range(k):
        lines += ["  i = 0;", f"  while (i {cmp_last if j == k - 1 else '<'} n) {{"]
        lines += [f"    a{j}[i] = {j % 3 - 1};"] if j % 2 == 0 else [f"    r = a{j - 1}[i];", f"    a{j}[i] = r;"]
        lines += ["    i = i + 1;", "  }"]
    return "\n".join([*lines, "}", ""])


@pytest.mark.parametrize("cmp", ["<", "<="])
def test_bounds_asserts_of_a_nine_array_chain(cmp, monkeypatch):
    # 21 scalar variables, octagon matrices of 42 x 42. One assert per
    # fill and two per copy; with `<=` the one of the last loop, a fill
    # whose access at i == n is out of bounds, stays unproven. The
    # affine row reductions and incremental closures are counted, which
    # no machine speed moves: the Karr shortcuts take the reductions
    # from 276 to 161, and `add_eq`, which reduces only its own row,
    # to 84; refuting a constraint before closing takes the closures
    # from 330 to 291
    canon, reductions = AffineEqs._canon, []
    monkeypatch.setattr(AffineEqs, "_canon", lambda self, raw: reductions.append(raw) or canon(self, raw))
    close_with, closures = octagon._close_with, []
    monkeypatch.setattr(octagon, "_close_with", lambda *args: closures.append(args) or close_with(*args))
    p = decompose_accesses(parse_program(wide_chain(9, cmp)))
    cfg = IndexConfig(arrays={f"a{j}": ArrayCells(1) for j in range(9)}, bounds_checks=True)
    res = analyze_scalar(transform_program(p, cfg))
    assert len(reductions) <= 84 and len(closures) <= 291
    assert [a.proven for a in res.asserts] == [True] * 12 + [cmp == "<"]
    if cmp == "<":
        assert {len(el.vars) for el in res.exit.parts.values()} == {21}



def test_nine_array_chain_exits_with_one_pack_of_positions():
    # the exit octagon relates n, i and the nine cell positions
    # (0 <= x < n, i == n); a cell's value and r are related to nothing,
    # so each sits in a pack of its own
    p = decompose_accesses(parse_program(wide_chain(9, "<")))
    cfg = IndexConfig(arrays={f"a{j}": ArrayCells(1) for j in range(9)}, bounds_checks=True)
    (el,) = analyze_scalar(transform_program(p, cfg)).exit.parts.values()
    o = el.oct.close()
    packs = {tuple(o.vars[i] for i in pack.vars) for pack in o.packs}
    related = {"n", "i", *(f"a{j}$0$x0" for j in range(9))}
    assert set(map(frozenset, packs)) == {frozenset(related), *(frozenset({v}) for v in set(o.vars) - related)}
    assert len(o.vars) == 21

COUNT = """
proc count(n: int) {
  var i: int;
  i = 0;
  while (i < 10) {
    i = i + 1;
  }
  assert(i == 10);
}
"""


def test_loop_head_recovers_the_bound_the_widening_dropped():
    # widening drops i <= 10 from the head; the round after the widened
    # post-fixpoint has it back, and that round is the head
    asserts = analyze_scalar(transform_program(parse_program(COUNT), IndexConfig())).asserts
    assert [(a.line, a.proven) for a in asserts] == [(8, True)]


# ------------------------------------------------------------ termination

DUTCH = """
proc dutch(n: int) {
  array t[n]: color;
  var b, w, r, x, y: int;
  b = 0;
  w = 0;
  r = n;
  while (w < r) {
    x = t[w];
    if (x == BLUE) {
      y = t[b];
      t[b] = x;
      t[w] = y;
      b = b + 1;
      w = w + 1;
    } else {
      if (x == WHITE) {
        w = w + 1;
      } else {
        r = r - 1;
        y = t[r];
        t[r] = x;
        t[w] = y;
      }
    }
  }
}
"""


def _give_up(signum, frame):
    raise TimeoutError("the analysis did not stabilise")


def test_a_collapsed_loop_head_stabilises():
    # one `x < e` flag per access site of the Dutch flag loop drives its
    # head past PARTITION_CAP; the iterates after the collapse must be
    # widened in the collapsed key, or the ascending sequence never ends
    sites = ("w", "b", "b", "w", "r", "r", "w")
    flags = tuple(ObsFlag(k, f"lt{k}", parse_condition(f"t$0$x0 < {e}")) for k, e in enumerate(sites))
    cfg = IndexConfig(arrays={"t": ArrayCells(1)}, observers=ObserverSpec(flags))
    sp = transform_program(decompose_accesses(parse_program(DUTCH)), cfg)
    previous = signal.signal(signal.SIGALRM, _give_up)
    signal.setitimer(signal.ITIMER_REAL, 20.0)
    try:
        res = analyze_scalar(sp)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert_sound(sp, res.exit.to_formula())


# ------------------------------------------------- differential soundness


def flag_pair(site: int, cell: str, index: str, names=("lt", "at")) -> tuple[ObsFlag, ...]:
    lt, at = names
    return (ObsFlag(site, lt, parse_condition(f"{cell} < {index}")), ObsFlag(site, at, parse_condition(f"{cell} == {index}")))


INIT = """
proc init(n: int) {
  array t[n]: int;
  var i: int;
  i = 0;
  while (i < n) {
    t[i] = 0;
    i = i + 1;
  }
}
"""

INDEX = """
proc index(n: int) {
  array t[n]: int;
  var i: int;
  i = 0;
  while (i < n) {
    t[i] = i;
    i = i + 1;
  }
}
"""

MAX = """
proc maxsearch(n: int) {
  array t[n]: int;
  var i: int;
  var m: int;
  var r: int;
  assume(n >= 1);
  m = t[0];
  i = 1;
  while (i < n) {
    r = t[i];
    if (r > m) {
      m = r;
    }
    i = i + 1;
  }
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
}
"""

ONE_T = {"t": ArrayCells(1)}

PROGRAMS = {
    "init": (INIT, IndexConfig(arrays=ONE_T, observers=ObserverSpec(flag_pair(0, "t$0$x0", "i")))),
    "index": (INDEX, IndexConfig(arrays=ONE_T, observers=ObserverSpec(flag_pair(0, "t$0$x0", "i")))),
    "max": (MAX, IndexConfig(arrays=ONE_T, observers=ObserverSpec(flag_pair(1, "t$0$x0", "i")))),
    "copy": (
        COPY,
        IndexConfig(
            arrays={"a": ArrayCells(1), "b": ArrayCells(1)},
            focus=parse_formula("a$0$x0 == b$0$x0"),
            observers=ObserverSpec(
                flag_pair(0, "a$0$x0", "i", ("rlt", "rat")) + flag_pair(1, "b$0$x0", "i", ("wlt", "wat"))
            ),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_final_state_satisfies_the_exit_formula(name):
    src, cfg = PROGRAMS[name]
    sp = transform_program(decompose_accesses(parse_program(src)), cfg)
    assert_sound(sp, analyze_scalar(sp).exit.to_formula())


def assert_sound(sp, exit_formula):
    params = {v: range(4) if v == "n" else range(3) for v in sp.program.params}
    finals = [s for s in enumerate_executions(sp.program, Bounds(params, (0, 1, 2))) if s.status == OK]
    assert finals
    for s in finals:
        assert exit_formula.evaluate(s.scalar_dict()), s


def test_each_condition_is_translated_once(monkeypatch):
    # the loop guard is met in every round, the assert once: two
    # condition nodes, two translations
    met = []
    translate = abstract.cond_to_formula
    monkeypatch.setattr(abstract, "cond_to_formula", lambda c: met.append(c) or translate(c))
    asserts = analyze_scalar(transform_program(parse_program(COUNT), IndexConfig())).asserts
    assert [(a.line, a.proven) for a in asserts] == [(8, True)]
    assert len(met) == len({id(c) for c in met}) == 2


def test_each_guard_is_normalised_once_per_analysis(monkeypatch):
    # two condition nodes, each compiled with its negation once: four
    # guards, and four again in a second analysis, which reuses nothing
    # of the first
    met = []
    compile_guard = abstract.compile_guard
    monkeypatch.setattr(abstract, "compile_guard", lambda f, vs, neg=False: met.append((f, neg)) or compile_guard(f, vs, neg))
    sp = transform_program(parse_program(COUNT), IndexConfig())
    for _ in range(2):
        met.clear()
        assert [(a.line, a.proven) for a in analyze_scalar(sp).asserts] == [(8, True)]
        assert sorted(neg for _, neg in met) == [False, False, True, True]
        assert len({f for f, _ in met}) == 2


# the loop guard i < 10 stands at three nodes: the loop, the if in its
# body, and the assume after it
REPEATED = """
proc repeated(n: int) {
  var i: int;
  var j: int;
  i = 0;
  while (i < 10) {
    if (i < 10) {
      j = j + 1;
    }
    i = i + 1;
  }
  assume(i < 10);
}
"""


def test_a_condition_at_several_nodes_is_compiled_once_per_polarity(monkeypatch):
    met = []
    compile_guard = abstract.compile_guard
    monkeypatch.setattr(abstract, "compile_guard", lambda f, vs, neg=False: met.append((f, neg)) or compile_guard(f, vs, neg))
    analyze_scalar(transform_program(parse_program(REPEATED), IndexConfig()))
    assert len({f for f, _ in met}) == 1
    assert sorted(neg for _, neg in met) == [False, True]


def cache_sizes() -> dict:
    """The size of every dict, list and set bound at module or class
    level in the package, and of every functools cache."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "arrayabs" and not name.startswith("arrayabs."):
            continue
        scopes = [(name, vars(mod))]
        scopes += [(f"{name}.{k}", vars(v)) for k, v in vars(mod).items() if isinstance(v, type)]
        for where, scope in scopes:
            for attr, v in scope.items():
                if isinstance(v, (dict, list, set)) and not attr.startswith("__"):
                    out[where, attr] = len(v)
                elif hasattr(v, "cache_info"):
                    out[where, attr] = v.cache_info().currsize
    return out


def test_analyses_share_no_growing_cache():
    # guard normal forms and reduction memos belong to one analysis run
    analyze_scalar(transform_program(parse_program(COUNT), IndexConfig()))
    before = cache_sizes()
    analyze_scalar(transform_program(parse_program(CHAIN % "<"), IndexConfig(arrays={"a0": ArrayCells(1)})))
    assert cache_sizes() == before
