"""Formulas rendered as source conditions and translated back."""

import pytest
from hypothesis import given, settings, strategies as st

from arrayabs.bridge import BridgeError, cond_to_formula, formula_to_cond
from arrayabs.lia import Lin, dvd, ge0, land, lnot, lor

from helpers import truth_table

NAMES = ("x", "y", "z")
x, y, z = (Lin.var(v) for v in NAMES)

coeff = st.integers(-2, 2)
ge_atom = st.builds(
    lambda a, b, c, k: ge0(Lin.make({"x": a, "y": b, "z": c}, k)), coeff, coeff, coeff, st.integers(-4, 4)
)
formulas = st.recursive(
    ge_atom,
    lambda sub: st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: land(*fs)),
        st.lists(sub, min_size=2, max_size=3).map(lambda fs: lor(*fs)),
        sub.map(lnot),
    ),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(formulas)
def test_round_trip_keeps_the_truth_table(f):
    g = cond_to_formula(formula_to_cond(f))
    assert (truth_table(g, NAMES, -3, 3) == truth_table(f, NAMES, -3, 3)).all()


@pytest.mark.parametrize(
    "f",
    [
        dvd(2, x),
        lnot(dvd(3, x + y)),
        land(ge0(x), dvd(2, y + z)),
        land(ge0(z), lor(ge0(y), dvd(2, x - y))),
    ],
    ids=str,
)
def test_no_source_syntax(f):
    with pytest.raises(BridgeError):
        formula_to_cond(f)
