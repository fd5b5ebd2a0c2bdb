"""The brute-force oracles of `arrayabs.oracle` as differential tests.

Each check enumerates a tiny finite domain and compares the abstraction
(or the shipped transformer, run under the concrete interpreter) with
the concrete semantics; every law must hold. Every check is keyed by a
k-cell layout, `ArrayCells(count, ordered)`.

`check_completeness` runs on the generator's programs with one cell per
access, where the paper's loop-free claim says the outcome sets are
equal. The same programs drive the exact analysis, whose relation must
admit every final state the interpreter reaches.
"""

import itertools
import random

import pytest

from arrayabs.backend import analyze_loopfree_exact, primed
from arrayabs.lang import Bounds, enumerate_executions
from arrayabs.lang.ast import ArrRead, ArrWrite, Assign, Num, Var
from arrayabs.lang.interp import OK
from arrayabs.oracle import (
    FiniteDomain,
    check_completeness,
    check_galois,
    check_precision_loss_example,
    check_statement_soundness,
    random_loopfree_program,
)
from arrayabs.transform import ArrayCells, IndexConfig, transform_program

TINY = FiniteDomain((0, 1), (0, 1))


@pytest.mark.parametrize("cells", [ArrayCells(1), ArrayCells(2, ordered=True)], ids=["alpha1", "alpha2lt"])
def test_galois_exhaustive(cells):
    report = check_galois(TINY, cells)
    assert report.ok, report.render()


def test_galois_sampled_three_positions():
    report = check_galois(FiniteDomain((0, 1, 2), (0, 1)), ArrayCells(2, ordered=True), samples=60)
    assert report.ok, report.render()


STATEMENTS = {
    "read": Assign("r", ArrRead("f", (Var("i"),))),
    "write-var": ArrWrite("f", (Var("i"),), Var("r")),
    "write-const": ArrWrite("f", (Var("i"),), Num(1)),
}


@pytest.mark.parametrize(
    "cells",
    [ArrayCells(1), ArrayCells(2), ArrayCells(2, ordered=True), ArrayCells(3)],
    ids=["1", "2", "2lt", "3"],
)
@pytest.mark.parametrize("name", sorted(STATEMENTS))
def test_statement_soundness(name, cells):
    # scalar states: every (i, r) over the index and value sets
    dom = FiniteDomain((0, 1), (0, 1), tuple(itertools.product((0, 1), (0, 1))))
    cfg = IndexConfig({"f": cells})
    report = check_statement_soundness(STATEMENTS[name], cfg, dom, ("i", "r"))
    assert report.ok, report.render()


def test_precision_loss_example():
    report = check_precision_loss_example(TINY)
    assert report.ok, report.render()


# ------------------------------------------------------ loop-free programs

# seed 11 is left out: its transformed program exceeds the enumeration
# budget (EnumerationBudgetError after about 9 s)
@pytest.mark.parametrize("seed", [g for g in range(40) if g != 11])
def test_completeness_with_one_cell_per_access(seed):
    p, cfg = random_loopfree_program(random.Random(seed))
    assert check_completeness(p, cfg).equal


@pytest.mark.parametrize("seed", range(1, 10))
def test_exact_summaries_mention_only_inputs_and_outputs(seed):
    # dead versions are projected out as the paths go, so renaming the
    # current versions leaves bare (input) and primed (output) scalars
    p, cfg = random_loopfree_program(random.Random(seed))
    sp = transform_program(p, cfg)
    scalars = sp.program.scalars()
    names = set(scalars) | {primed(v) for v in scalars}
    for f in analyze_loopfree_exact(sp).summaries:
        assert set(f.free_vars()) <= names


@pytest.mark.parametrize("seed", range(1, 10))
def test_exact_relation_admits_every_final_state(seed):
    p, cfg = random_loopfree_program(random.Random(seed))
    sp = transform_program(p, cfg)
    r = analyze_loopfree_exact(sp)
    prog = sp.program
    # cell positions range over their boxes; locals start at 0
    params = {
        xv: tuple(range(p.array(name).dims[0].value)) for name, cs in sp.cells.items() for c in cs for xv in c.index
    }
    finals = [st for st in enumerate_executions(prog, Bounds(params, (-1, 0, 1, 2))) if st.status == OK]
    assert finals
    for st in finals:
        final = st.scalar_dict()
        env = {v: final[v] if v in prog.params else 0 for v in prog.scalars()}
        env.update({primed(v): final[v] for v in prog.scalars()})
        assert r.relation.evaluate(env), final
