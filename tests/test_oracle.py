"""The brute-force oracles of `arrayabs.oracle` as differential tests.

Each check enumerates a tiny finite domain and compares the abstraction
(or the shipped transformer, run under the concrete interpreter) with
the concrete semantics; every law must hold.

`check_completeness` is not run here: its abstract side havocs array
reads only over the value set, so it reports false alarms on programs
that write a value outside that set.
"""

import itertools

import pytest

from arrayabs.lang.ast import ArrRead, ArrWrite, Assign, Num, Var
from arrayabs.oracle import FiniteDomain, check_galois, check_precision_loss_example, check_statement_soundness
from arrayabs.transform import ArrayCells, IndexConfig

TINY = FiniteDomain((0, 1), (0, 1))


@pytest.mark.parametrize("which", ["alpha1", "alpha2lt"])
def test_galois_exhaustive(which):
    report = check_galois(TINY, which)
    assert report.ok, report.render()


def test_galois_sampled_three_positions():
    report = check_galois(FiniteDomain((0, 1, 2), (0, 1)), "alpha2lt", samples=60)
    assert report.ok, report.render()


STATEMENTS = {
    "read": Assign("r", ArrRead("f", (Var("i"),))),
    "write-var": ArrWrite("f", (Var("i"),), Var("r")),
    "write-const": ArrWrite("f", (Var("i"),), Num(1)),
}


@pytest.mark.parametrize("cells", [1, 2])
@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_statement_soundness(name, cells):
    # scalar states: every (i, r) over the index and value sets
    dom = FiniteDomain((0, 1), (0, 1), tuple(itertools.product((0, 1), (0, 1))))
    cfg = IndexConfig({"f": ArrayCells(cells)})
    report = check_statement_soundness(STATEMENTS[name], cfg, dom, ("i", "r"))
    assert report.ok, report.render()


def test_precision_loss_example():
    report = check_precision_loss_example(TINY)
    assert report.ok, report.render()
