"""Lifting scalar invariants to array facts, checking ensures clauses,
the octagon split of the target check against `lia.is_sat`, and the
pair reduction of ordered two-cell invariants."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from arrayabs.backend import analyze_scalar
from arrayabs.lang import CheckError, Cmp, Expr, Num, Target, decompose_accesses, parse_condition, parse_program
from arrayabs.lia import FALSE, TRUE, Budget, Formula, Lin, dvd, entails, equivalent, ge0, implies, is_sat, land, lnot, lor, nnf, parse_formula
from arrayabs import lift as lift_module
from arrayabs.lift import LiftError, QuantifiedInvariant, _instance, _refuted, check_target, quantify, reduce_dual
from arrayabs.transform import ArrayCells, Cell, IndexConfig, ObserverSpec, ObsFlag, transform_program

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from helpers import reference_check_target  # noqa: E402
from reference import ensures_holds  # noqa: E402

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

# the index loop of FILL with a clause over two positions of t
INDEX = """
proc index(n: int) {
  array t[n]: int;
  var i: int;
  i = 0;
  while (i < n) {
    t[i] = i;
    i = i + 1;
  }
} ensures %s;
"""

PAIR = ObserverSpec((ObsFlag(0, "lt", parse_condition("t$0$x0 < i")), ObsFlag(0, "at", parse_condition("t$0$x0 == i"))))

# the flag pair of each cell of an ordered two-cell layout, on the write
ORDERED_PAIRS = ObserverSpec(
    tuple(
        ObsFlag(0, f"{name}{c}", parse_condition(f"t${c}$x0 {op} i"))
        for c in (0, 1)
        for name, op in (("lt", "<"), ("at", "=="))
    )
)


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
        ("2 * i", "t[k] == 2 * k", True),  # needs the affine half of the product
    ],
)
def test_fill(value, clause, expected):
    assert proved(fill(value, clause)) is expected


@pytest.mark.parametrize(
    "ensures, expected",
    [
        ("forall k, l: 0 <= k && k < l && l < n ==> t[k] < t[l]", True),
        ("forall k, l: 0 <= k && k < l && l < n ==> t[k] > t[l]", False),
        ("forall k: 0 <= k && k + 1 < n ==> t[k] < t[k + 1]", True),
        ("forall k: 0 <= k && k + 1 < n ==> t[k] > t[k + 1]", False),
    ],
    ids=["sorted", "sorted-neg", "adjacent", "adjacent-neg"],
)
def test_ordered_pair_of_cells(ensures, expected):
    assert proved(INDEX % ensures, cells=ArrayCells(2, ordered=True), observers=ORDERED_PAIRS) is expected


@pytest.mark.parametrize("clause, expected", [("t[k] == old(t[k])", True), ("t[k] == old(t[k]) + 1", False)])
def test_old_reads_entry_symbol(clause, expected):
    # the old() read gives t its snapshot variable; plain cells suffice
    assert proved(KEEP % clause, observers=None) is expected


def test_snapshots_only_for_arrays_read_through_old():
    cfg = IndexConfig(arrays={"t": ArrayCells(1)})
    keep = transform_program(parse_program(KEEP % "t[k] == old(t[k])"), cfg)
    assert "t$0$init" in keep.program.locals
    init = transform_program(parse_program(fill("0", "t[k] == 0")), cfg)
    assert not any(n.endswith("$init") for n in init.program.locals)


@pytest.mark.parametrize("clause, expected", [("t[at] == at", True), ("t[at] <= 1", False)])
def test_target_index_named_like_an_observer_flag(clause, expected):
    # `at` is a scalar of the transformed program; the clause's index
    # must stay apart from it
    assert proved(fill("i", clause, k="at")) is expected


@pytest.mark.parametrize("clause, expected", [("t[i] == 0", True), ("t[i] == 1", False)])
def test_target_index_named_like_a_program_scalar(clause, expected):
    target = Target(("i",), parse_condition(f"0 <= i && i < n ==> {clause}"))
    assert proved(fill("0", "true"), target) is expected


@pytest.mark.parametrize("clause, expected", [("t[t$0$x0] == 0", True), ("t[t$0$x0] == 1", False)])
def test_target_index_named_like_a_cell_variable(clause, expected):
    target = Target(("t$0$x0",), parse_condition(f"0 <= t$0$x0 && t$0$x0 < n ==> {clause}"))
    assert proved(fill("0", "true"), target) is expected


def test_program_may_not_declare_an_access_symbol():
    # the target check reads t[k] through the symbol t@final0; a declared
    # scalar of that name holding 7 would let a zero fill prove t[k] == 7
    src = fill("0", "t[k] == 7").replace("var i: int;", "var i: int;\n  var t@final0: int;\n  t@final0 = 7;")
    with pytest.raises(CheckError, match="reserved for generated names"):
        parse_program(src)


def test_target_check_out_of_budget_is_undecided():
    # None means "gave up"; False is kept for a query with a model
    inv, target = lift(fill("0", "t[k] == 0"))
    assert check_target(inv, target, budget=Budget(0)) is None
    assert check_target(inv, target) is True


# t[x] gets n - x: the cell's value, its position and n make one
# affine row of three variables, which no octagon holds
COUNTDOWN = """
proc countdown(n: int) {
  array t[n]: int;
  var i: int;
  var j: int;
  i = 0;
  j = n;
  while (i < n) {
    t[i] = j;
    i = i + 1;
    j = j - 1;
  }
} ensures forall k: 0 <= k && k < n ==> %s;
"""


@pytest.mark.parametrize("clause, expected", [("t[k] == n - k", True), ("t[k] == n - k - 1", False)])
def test_non_octagonal_invariant_is_decided_by_lia(monkeypatch, clause, expected):
    calls = []
    monkeypatch.setattr(lift_module, "is_sat", lambda f, budget: calls.append(f) or is_sat(f, budget))
    assert proved(COUNTDOWN % clause) is expected
    # the whole query, once, as at the parent
    assert len(calls) == 1 and any(len(a.lin.coeffs) == 3 for a in calls[0].atoms())


def test_octagonal_query_never_reaches_lia(monkeypatch):
    monkeypatch.setattr(lift_module, "is_sat", lambda f, budget: pytest.fail("is_sat called"))
    assert proved(fill("0", "t[k] == 0")) is True
    assert proved(fill("0", "t[k] == 1")) is False


def test_budget_run_out_inside_the_split_is_undecided():
    inv, target = lift(fill("0", "t[k] == 0"))
    used = Budget()
    assert check_target(inv, target, budget=used) is True
    steps = Budget().left - used.left
    # one step for the one binding, every other for a node of the split
    assert steps > 2
    for left in range(2, steps):
        assert check_target(inv, target, budget=Budget(left)) is None
    assert check_target(inv, target, budget=Budget(steps)) is True


# -------------------------------------------------- the split against LIA

SPLIT_VARS = ("x", "y", "z", "w")


def split_atoms(names, hard):
    """Octagonal atoms; with `hard`, also the kinds that send a query to
    `is_sat`: a non-unit coefficient, three variables, dvd and not dvd."""
    v, sign, k = st.sampled_from(names), st.sampled_from((1, -1)), st.integers(-2, 2)
    atoms = [
        st.builds(lambda a, s, c: ge0(Lin.var(a, s) + c), v, sign, k),
        st.builds(lambda a, b, s, t, c: ge0(Lin.make({a: s, b: t}, c)), v, v, sign, sign, k),
    ]
    if hard:
        dvds = st.builds(lambda m, a, b, c: dvd(m, Lin.make({a: 1, b: 1}, c)), st.sampled_from((2, 3)), v, v, k)
        atoms += [
            st.builds(lambda a, b, c: ge0(Lin.make({a: 2, b: -1}, c)), v, v, k),
            st.builds(lambda c: ge0(Lin.make(dict.fromkeys(names[:3], 1), c)), k),
            dvds,
            dvds.map(lnot),
        ]
    return st.one_of(*atoms)


def nnf_formulas(names, hard, trees, leaves):
    """A conjunction of 3 to `trees` nested and/or trees, so that some
    of them are unsatisfiable."""
    tree = st.recursive(
        split_atoms(names, hard),
        lambda kids: st.builds(lambda op, fs: op(*fs), st.sampled_from((land, lor)), st.lists(kids, min_size=2, max_size=3)),
        max_leaves=leaves,
    )
    return st.lists(tree, min_size=3, max_size=trees).map(lambda fs: land(*fs))


def walk_trees(names, hard, trees, leaves):
    """Queries as `check_target` builds them, each and/or node made as
    drawn: nested `and`s, duplicate literals, and a literal beside its
    complement, which `land` and `lor` would have folded."""

    def node(kind, fs):
        return Formula(kind, args=tuple(fs))

    kinds, atom = st.sampled_from(("and", "or")), split_atoms(names, hard)
    leaf = st.one_of(atom, st.builds(lambda k, a: node(k, (a, lnot(a))), kinds, atom), atom.map(lambda a: node("and", (a, a))))
    tree = st.recursive(leaf, lambda kids: st.builds(node, kinds, st.lists(kids, min_size=2, max_size=3)), max_leaves=leaves)
    return st.lists(tree, min_size=3, max_size=trees).map(lambda fs: node("and", fs))


def split_queries(trees, leaves):
    """`nnf_formulas` and `walk_trees` over 2, 3 or 4 variables,
    octagonal or mixed."""
    return st.one_of(
        *(
            make(SPLIT_VARS[:n], hard, trees, leaves)
            for make in (nnf_formulas, walk_trees)
            for n in (2, 3, 4)
            for hard in (False, True)
        )
    )


def split_agrees_with_lia(q):
    assert _refuted(q, Budget()) is (is_sat(q) is None)


@settings(max_examples=200, deadline=None)
@given(split_queries(6, 5))
def test_split_agrees_with_lia(q):
    split_agrees_with_lia(q)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None)
@given(split_queries(8, 10))
def test_long_sweep_of_the_split_against_lia(q):
    split_agrees_with_lia(q)


# x is a position with the cell value v; U -> M is false at x = 0 for
# n = 3, and true at x = -1 for any n
FOLD_BASE = nnf(implies(parse_formula("0 <= x && x < n"), parse_formula("x >= 5 && v == 0")))


def test_a_premise_that_folds_to_false_refutes_the_query():
    premise = _instance(FOLD_BASE, {"x": Lin.of(0), "n": Lin.of(3)})
    assert premise == FALSE
    query = Formula("and", args=(_instance(FOLD_BASE, {"x": Lin.var("y")}), premise))
    assert _refuted(query, Budget()) is True and is_sat(query) is None


def test_a_query_that_folds_to_a_constant():
    assert _instance(FOLD_BASE, {"x": Lin.of(-1)}) == TRUE
    assert _refuted(TRUE, Budget()) is False and _refuted(FALSE, Budget()) is True


def test_an_atom_without_a_bound_variable_is_passed_on():
    premise = _instance(FOLD_BASE, {"x": Lin.of(7)})
    # 0 <= 7 and 7 >= 5 fold away; n and v are not bound
    assert premise == Formula("or", args=(ge0(Lin.make({"n": -1}, 7)), Formula("and", args=(ge0(Lin.var("v")), ge0(Lin.var("v", -1))))))
    assert _instance(FOLD_BASE, {"y": Lin.of(7)}) == FOLD_BASE


def test_folded_premises_agree_with_the_reference():
    # at x = 0 the premise says n <= 0, against the clause's n >= 8; at
    # x = 7 it folds to true and the clause is left unproved
    cells = {"t": (Cell(("x",), "v"),)}
    inv = QuantifiedInvariant(("x",), parse_formula("0 <= x && x < n"), parse_formula("x >= 5"), cells)
    for clause, proved in (("t[0] == 1", True), ("t[7] == 1", False)):
        target = Target((), parse_condition(f"n >= 8 ==> {clause}"))
        assert check_target(inv, target) is proved is reference_check_target(inv, target)


# -------------------------------------- the query against the reference


@pytest.mark.parametrize("clause", ["t[k] == n - k", "t[k] == n - k - 1"])
def test_non_octagonal_query_agrees_with_the_reference(clause):
    inv, target = lift(COUNTDOWN % clause)
    assert check_target(inv, target) is reference_check_target(inv, target)


@pytest.mark.parametrize("job", workloads.paper_corpus(0), ids=lambda job: job.id)
def test_corpus_query_agrees_with_the_reference(job):
    sp = transform_program(decompose_accesses(parse_program(job.source)), job.cfg)
    phi = analyze_scalar(sp).exit.to_formula()
    if job.reduce_dual:
        phi = reduce_dual(phi, sp)
    inv = quantify(phi, sp)
    assert check_target(inv, sp.target) is reference_check_target(inv, sp.target)


FILL2 = """
proc fill2(n: int) {
  array a[n]: int;
  array b[n]: int;
  var i: int;
  i = 0;
  while (i < n) {
    a[i] = i;
    b[i] = 2 * i;
    i = i + 1;
  }
} ensures n >= 0 ==> i == n;
"""


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="with n = 0 no position is admissible, so the lifted invariant says nothing of i")
def test_scalar_clause_with_arrays_tracked():
    # one cell per array, the flag pair at each write; the clause holds
    # on every run, and no premise speaks of i when n = 0
    p = parse_program(FILL2)
    assert ensures_holds(p, (0, 1, 2, 3))
    flags = tuple(
        ObsFlag(site, f"{name}{site}", parse_condition(f"{x}$0$x0 {op} i"))
        for site, x in enumerate("ab")
        for name, op in (("lt", "<"), ("at", "=="))
    )
    sp = transform_program(p, IndexConfig(arrays={x: ArrayCells(1) for x in "ab"}, observers=ObserverSpec(flags)))
    assert check_target(quantify(analyze_scalar(sp).exit.to_formula(), sp), sp.target) is True


def _two_arrays(cells: int, terms: int):
    """An invariant that says nothing, over arrays a and b with `cells`
    cells each, and a valid clause that reads each at `terms` terms."""
    layout = {x: tuple(Cell((f"{x}${j}$x0",), f"{x}${j}$v") for j in range(cells)) for x in "ab"}
    indices = tuple(c.index[0] for cs in layout.values() for c in cs)
    reads = " + ".join(f"{x}[k + {d}]" for x in "ab" for d in range(terms))
    return QuantifiedInvariant(indices, TRUE, TRUE, layout), Target(("k",), parse_condition(f"{reads} == {reads}"))


def test_target_check_charges_one_step_per_premise():
    # every cell of both arrays at one of 2 terms: 2**4 premises, then
    # one solver step on a clause that is valid as it stands
    inv, target = _two_arrays(cells=2, terms=2)
    assert check_target(inv, target, budget=Budget(16)) is None
    assert check_target(inv, target, budget=Budget(17)) is True
    # 12**6 premises, past the default budget: given up before building one
    inv, target = _two_arrays(cells=3, terms=12)
    assert check_target(inv, target) is None


def test_unsupported_target_expression_raises_lift_error():
    inv, _ = lift(fill("0", "true"))
    with pytest.raises(LiftError):
        check_target(inv, Target(("k",), Cmp("==", Expr(), Num(0))))


def test_target_with_the_wrong_number_of_subscripts_raises_lift_error():
    # the cells of a have one index; the clause reads a with two
    inv, _ = _two_arrays(cells=1, terms=1)
    with pytest.raises(LiftError, match="target indexes a with 2 subscripts, cells have 1"):
        check_target(inv, Target(("k",), parse_condition("a[k][k] == 0")))


def test_render_of_the_init_invariant():
    # the universe's negation, then one disjunct per observer outcome
    # of the exit state: the cell was written last (x0 == i - 1) or
    # earlier (x0 <= i - 2); either way its value is 0. The flags only
    # key the parts and are not rendered.
    inv, _ = lift(fill("0", "t[k] == 0"))
    assert inv.render() == " || ".join(
        [
            "forall t$0$x0: !(n >= t$0$x0 + 1 && t$0$x0 >= 0)",
            "t$0$x0 + 1 >= i && i >= 1 && i >= n && n >= 1 && n >= t$0$x0 + 1 && 0 == t$0$v",
            "n >= i && i >= 2 && i >= n && i >= t$0$x0 + 2 && 0 == t$0$v && t$0$x0 >= 0",
        ]
    )


def test_render_simplifies_a_body_with_no_source_syntax():
    # divisibility has no source syntax, so the formula printer writes
    # the body; it is simplified all the same
    x = Lin.var("x")
    inv = QuantifiedInvariant((), TRUE, land(dvd(2, x), ge0(x), ge0(x + 3)), {})
    assert inv.render() == "x >= 0 && 2 | (x)"


# ---------------------------------------------------------- reduce_dual

INDEX_ARR = (Path(__file__).resolve().parent.parent / "perfbench" / "corpus" / "index.arr").read_text()


def index_program(cells: ArrayCells):
    return transform_program(parse_program(INDEX_ARR), IndexConfig(arrays={"t": cells}))


def test_quantify_rejects_an_unknown_variable():
    with pytest.raises(LiftError, match="invariant mentions unknown variables: z"):
        quantify(parse_formula("i >= 0 && z >= i"), index_program(ArrayCells(1)))


def test_pair_reduction_rules_out_a_right_cell_with_no_left_neighbours():
    # every position left of t$1$x0 must be able to hold the left cell,
    # and phi puts the left cell below 2, so t$1$x0 <= 2
    sp = index_program(ArrayCells(2, ordered=True))
    phi = parse_formula("t$0$x0 < 2")
    far = parse_formula("t$1$x0 == 5 && n == 9")
    assert is_sat(land(phi, sp.universe, far)) is not None
    assert is_sat(land(reduce_dual(phi, sp), far)) is None


def test_pair_reduction_is_decreasing_and_idempotent():
    sp = index_program(ArrayCells(2, ordered=True))
    phi = parse_formula("t$0$x0 < 2")
    once = reduce_dual(phi, sp)
    assert entails(once, phi)
    assert equivalent(reduce_dual(once, sp), once)


def test_pair_reduction_out_of_budget_keeps_the_invariant():
    sp = index_program(ArrayCells(2, ordered=True))
    phi = parse_formula("t$0$x0 < 2")
    with pytest.warns(UserWarning, match="pair reduction ran out of budget"):
        assert reduce_dual(phi, sp, budget=Budget(1)) is phi


TWO_ARRAYS = """
proc two(n: int) {
  array t[n]: int;
  array u[n]: int;
  var i: int;
  i = 0;
}
"""


def test_pair_reduction_skips_a_focus_on_another_array():
    # the focus names a position of u, not only the pair's and the
    # parameters: the reduction is skipped, soundly, with a warning
    cfg = IndexConfig(
        arrays={"t": ArrayCells(2, ordered=True), "u": ArrayCells(1)},
        focus=parse_formula("t$0$x0 == u$0$x0"),
    )
    sp = transform_program(parse_program(TWO_ARRAYS), cfg)
    phi = parse_formula("t$0$x0 < 2")
    with pytest.warns(UserWarning, match="focus mentions other tracked positions"):
        assert reduce_dual(phi, sp) is phi


def test_pair_reduction_needs_an_ordered_pair():
    with pytest.raises(LiftError, match="need exactly one ordered two-cell array"):
        reduce_dual(parse_formula("t$0$x0 < 2"), index_program(ArrayCells(1)))
