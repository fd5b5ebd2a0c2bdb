"""Lifting scalar invariants to array facts and checking ensures clauses."""

import pytest

from arrayabs.backend import analyze_scalar
from arrayabs.lang import Cmp, Expr, Num, Target, decompose_accesses, parse_condition, parse_program
from arrayabs.lift import LiftError, check_target, quantify
from arrayabs.transform import ArrayCells, IndexConfig, ObserverSpec, ObsFlag, transform_program

FILL = """
proc fill(n: int) {
  array t[n]: int;
  var i: int;
  i = 0;
  while (i < n) {
    t[i] = %(value)s;
    i = i + 1;
  }
} ensures forall %(k)s: 0 <= %(k)s && %(k)s < n ==> %(clause)s;
"""

KEEP = """
proc keep(n: int) {
  array t[n]: int;
  var i: int;
  i = n;
} ensures forall k: 0 <= k && k < n ==> %s;
"""

PAIR = ObserverSpec((ObsFlag(0, "lt", parse_condition("t$0$x0 < i")), ObsFlag(0, "at", parse_condition("t$0$x0 == i"))))


def fill(value: str, clause: str, k: str = "k") -> str:
    return FILL % {"value": value, "clause": clause, "k": k}


def lift(src: str, cells: ArrayCells = ArrayCells(1), observers=PAIR):
    p = decompose_accesses(parse_program(src))
    sp = transform_program(p, IndexConfig(arrays={"t": cells}, observers=observers))
    return quantify(analyze_scalar(sp).exit.to_formula(), sp), sp.target


def proved(src: str, target: Target | None = None, **kw) -> bool:
    inv, own = lift(src, **kw)
    return check_target(inv, target or own)


@pytest.mark.parametrize(
    "value, clause, expected",
    [
        ("0", "t[k] == 0", True),  # the paper's init example
        ("0", "t[k] == 1", False),
        ("0", "t[k] != 1", True),
        ("0", "t[k] != 0", False),
        ("0", "t[t[k]] == 0", True),  # read nested in an index
        ("0", "t[t[k]] == 1", False),
        ("i", "t[k] == k", True),
        ("i", "t[k] <= 1", False),
    ],
)
def test_fill(value, clause, expected):
    assert proved(fill(value, clause)) is expected


@pytest.mark.parametrize("clause, expected", [("t[k] == old(t[k])", True), ("t[k] == old(t[k]) + 1", False)])
def test_old_reads_entry_symbol(clause, expected):
    assert proved(KEEP % clause, cells=ArrayCells(1, snapshot=True), observers=None) is expected


@pytest.mark.parametrize("clause, expected", [("t[at] == at", True), ("t[at] <= 1", False)])
def test_target_index_named_like_an_observer_flag(clause, expected):
    # `at` is a scalar of the transformed program; the clause's index
    # must stay apart from it and from every per-position copy of it
    assert proved(fill("i", clause, k="at")) is expected


@pytest.mark.parametrize("clause, expected", [("t[i] == 0", True), ("t[i] == 1", False)])
def test_target_index_named_like_a_program_scalar(clause, expected):
    target = Target(("i",), parse_condition(f"0 <= i && i < n ==> {clause}"))
    assert proved(fill("0", "true"), target) is expected


def test_unsupported_target_expression_raises_lift_error():
    inv, _ = lift(fill("0", "true"))
    with pytest.raises(LiftError):
        check_target(inv, Target(("k",), Cmp("==", Expr(), Num(0))))
