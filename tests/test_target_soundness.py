"""`check_target` against the concrete interpreter: a proved ensures
clause holds on every run.

Small loops fill one or two arrays with the values 0, i, i + 1 and
2 * i, or copy one array into another plus such a value. Each clause
compares a written array at k with what the loop wrote there, off by
-1, 0 or +1, or with the other array's read plus a value at k: true
and false clauses alike. Each array has one or
two cells with the flag pair `x < i`, `x == i` at every access site,
and a copy may tie the two arrays' first cells with a focus. A True
verdict must agree with `perfbench/reference.ensures_holds`, which runs
the program for n in 0..3 from every content over (0, 1, 2), and every
verdict with `helpers.reference_check_target`, which builds the query
by `land` and simplifies it. Tier-1 checks a fixed sample with one cell
per array and a smaller one with two; the `slow` marker runs a larger
one over the whole set.
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

from arrayabs.backend import analyze_scalar
from arrayabs.lang import decompose_accesses, parse_condition, parse_program
from arrayabs.lia import parse_formula
from arrayabs.lift import check_target, quantify
from arrayabs.transform import ArrayCells, IndexConfig, ObserverSpec, ObsFlag, transform_program

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from helpers import reference_check_target  # noqa: E402
from reference import ensures_holds  # noqa: E402

VALUES = ("0", "i", "i + 1", "2 * i")
OPS = ("==", "!=", "<=", "<")
SIZES = (0, 1, 2, 3)

# name -> (arrays, the array of each access site in order, loop body,
# the value each written array holds at k, focus choices)
SHAPES = {
    "fill": (("t",), ("t",), "t[i] = {v};", {"t": "{v}"}, (False,)),
    "fill2": (("a", "b"), ("a", "b"), "a[i] = {v}; b[i] = {w};", {"a": "{v}", "b": "{w}"}, (False,)),
    "copy": (("a", "b"), ("a", "b"), "r = a[i]; b[i] = r + {w};", {"b": "a[k] + {w}"}, (False, True)),
}

SOURCE = """
proc p(n: int) {{
  {arrays}
  var i: int;
  var r: int;
  i = 0;
  while (i < n) {{
    {body}
    i = i + 1;
  }}
}} ensures forall k: 0 <= k && k < n ==> {clause};
"""


def _at_k(value: str) -> str:
    return value.replace("i", "k")


def _examples() -> list[tuple]:
    out = []
    for shape, (arrays, _sites, body, holds, focuses) in SHAPES.items():
        for v, w, cells, focus in itertools.product(VALUES, VALUES, (1, 2), focuses):
            if any(f"{{{x}}}" not in body and y != "0" for x, y in (("v", v), ("w", w))):
                continue
            for lhs, value in holds.items():
                value = _at_k(value.format(v=v, w=w))
                rhs = [value + off for off in ("", " + 1", " - 1")]
                rhs += [f"{x}[k] + {_at_k(u)}" for x in arrays if x != lhs for u in VALUES]
                for op, r in itertools.product(OPS, dict.fromkeys(rhs)):
                    out.append((shape, v, w, cells, focus, f"{lhs}[k] {op} {r}"))
    return out


EXAMPLES = _examples()


def _job(shape, v, w, cells, focus, clause):
    arrays, sites, body, _holds, _focuses = SHAPES[shape]
    src = SOURCE.format(
        arrays=" ".join(f"array {x}[n]: int;" for x in arrays),
        body=body.format(v=v, w=w),
        clause=clause,
    )
    flags = tuple(
        ObsFlag(site, f"{name}{site}{c}", parse_condition(f"{x}${c}$x0 {op} i"))
        for site, x in enumerate(sites)
        for c in range(cells)
        for name, op in (("lt", "<"), ("at", "=="))
    )
    cfg = IndexConfig(
        arrays={x: ArrayCells(cells) for x in arrays},
        focus=parse_formula("a$0$x0 == b$0$x0") if focus else None,
        observers=ObserverSpec(flags),
    )
    return parse_program(src), cfg


def _check(example) -> bool | None:
    p, cfg = _job(*example)
    sp = transform_program(decompose_accesses(p), cfg)
    inv = quantify(analyze_scalar(sp).exit.to_formula(), sp)
    verdict = check_target(inv, sp.target)
    assert verdict is reference_check_target(inv, sp.target), f"differs from the reference: {example}"
    if verdict:
        assert ensures_holds(p, SIZES), f"proved but false: {example}"
    return verdict


def _sample(seed: int, per_shape: int, cells: tuple[int, ...]) -> list[tuple]:
    rng = random.Random(seed)
    out = []
    for shape in SHAPES:
        pool = [e for e in EXAMPLES if e[0] == shape and e[3] in cells]
        out += rng.sample(pool, min(per_shape, len(pool)))
    return out


def test_proved_clauses_hold_on_every_run():
    verdicts = [_check(example) for example in _sample(0, 8, cells=(1,))]
    # the sample proves some clauses and leaves others, so it tests something
    assert True in verdicts and False in verdicts


def test_two_cells_per_array():
    # both cells of an array are pinned where the clause reads it, in
    # an invariant over twice the positions of the one-cell sample
    verdicts = [_check(example) for example in _sample(2, 3, cells=(2,))]
    assert True in verdicts and False in verdicts


@pytest.mark.slow
def test_long_sweep():
    for example in _sample(1, 150, cells=(1, 2)):
        _check(example)


@pytest.mark.parametrize(
    "clause, proved",
    [("a[k] == k", True), ("a[k] == k + 1", False), ("i == n", True), ("i == n + 1", False)],
)
def test_tracked_arrays_the_clause_does_not_read(clause, proved):
    # b (and in the scalar clauses a too) is tracked but not read: its
    # cells are pinned where the clause reads a, or at k
    example = ("fill2", "i", "2 * i", 1, False, clause)
    assert _check(example) is proved
    assert ensures_holds(_job(*example)[0], SIZES) is proved
