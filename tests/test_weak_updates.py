"""The walker hands a state back from a cell's weak update that cannot
change it (`backend/abstract.py`, "Weak updates"). Wherever
`AbstractState.keeps` says yes, the general walk of the `If` (meet the
guard, walk the body, meet the negation, join, bound) gives back every
part: the same keys, equal octagons with the same variables per pack,
and the same formula text. The states are random products
(`helpers.product_steps`), one per flag partition, with the body's
variables mostly havocked as a read's register is; fixed cases pin
where `keeps` must say no, and how often the walker skips an `If` on
the benchmark.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from arrayabs.backend import AbstractState, Product, analyze_scalar
from arrayabs.backend.abstract import Interpreter, _weak_update
from arrayabs.bridge import cond_to_formula
from arrayabs.lang import If, decompose_accesses, parse_condition, parse_program
from arrayabs.lia import Lin, ge0
from arrayabs.transform import transform_program

from helpers import product_steps

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

NAMES = ("i", "j", "x", "y", "v", "r", "w")
NAMED = ("v", "r", "w")  # the variables a body may name

# the transform's cell guards, and a few other conditions; repeats
# weight the draw
CONDS = ("i == x", "i == x", "i == x && j == y", "x == i && j <= 3", "i <= x + 1", "i == 2", "i != x")
# the transform's two bodies, and a few other ones of the same statements
BODIES = (
    "v = w;",
    "v = 2 * w + 1;",
    "v = 3;",
    "v = v + 1;",
    "assume(r == v);",
    "havoc v;",
    "havoc r; assume(r == v);",
    "assume(r == v); w = r;",
)
# met by every part before the If: puts the condition's variables in
# one pack or two, or makes the parts entail the guard
LINK = "i <= x && x <= j + 3 && j - y <= 1"
RELATE = (None, LINK, LINK, LINK, "i <= x", "x <= i + 2 && j <= y", "i == x", "i == x", "i == x && j == y")
# and then, sometimes, bounds or relates a variable a body may name
CONSTRAIN = (None,) * 6 + ("v <= 4", "w >= 1", "r <= v", "v == 2")


def if_stmt(cond: str, body: str):
    (s,) = parse_program(f"proc p() {{ var {', '.join(NAMES)}, f: int; if ({cond}) {{ {body} }} }}").body
    return s


def product_of(steps, free=()) -> Product:
    """The product the steps make, each taken as the analysis takes it
    (a guard met and reduced, a widening kept as it is), then with each
    variable of free havocked."""
    states = [Product.top(NAMES)]
    p = states[0]
    for op, *args in steps:
        if op == "assign":
            p = p.assign(*args)
        elif op == "forget":
            p = p.forget(args[0])
        elif op == "pin":
            p = p.assume(ge0(args[0])).reduce().assume(ge0(-args[0])).reduce()
        elif op != "assume":
            q = states[-1 - args[0] % len(states)]
            p = q if op == "rewind" else p.join(q) if op == "join" else q.widen(p)
        if op in ("assume", "widen") and args[-1] is not None:
            p = p.assume(args[-1]).reduce()
        states.append(p)
    for v in free:
        p = p.forget(v)
    return p


def state_of(parts, *relate) -> AbstractState:
    """One part per product, keyed by the flag f when there are several,
    each met with every condition of relate that is not None."""
    for c in filter(None, relate):
        parts = [p.assume(cond_to_formula(parse_condition(c))).reduce() for p in parts]
    parts = [p for p in parts if not p.is_empty()]
    flags = ("f",) if len(parts) > 1 else ()
    keys = [(0,), (1,), (None,)] if flags else [()]
    return AbstractState(flags, dict(zip(keys, parts)))


def walked(s, st: AbstractState) -> AbstractState:
    """The general walk of s, an If with no else branch."""
    g, not_g = st.guard(cond_to_formula(s.cond))
    return Interpreter().block(s.then, st.assume(g), []).join(st.assume(not_g)).bounded()


def kept(s, st: AbstractState) -> bool:
    """Whether the walker's check hands st back from s."""
    names = _weak_update(s, cond_to_formula(s.cond))
    return names is not None and st.keeps(st.guard(cond_to_formula(s.cond))[0], names)


def packs(p: Product) -> set:
    return {pk.vars for pk in p.oct.close().packs}


def assert_same_parts(a: AbstractState, b: AbstractState) -> None:
    assert set(a.parts) == set(b.parts)
    for k, p in a.parts.items():
        q = b.parts[k]
        assert p.oct == q.oct, k
        assert packs(p) == packs(q), k
        assert str(p.to_formula()) == str(q.to_formula()), k


def check_if(st: AbstractState, cond: str, body: str) -> bool:
    """The walker's result of the If against its general walk, from st;
    whether the walker kept the state."""
    s = if_stmt(cond, body)
    out = Interpreter().stmt(s, st, [])
    if not kept(s, st):
        assert out.parts == walked(s, st).parts
        return False
    assert out is st
    assert_same_parts(st, walked(s, st))
    return True


def run(parts, relate, constrain, cond, body) -> None:
    st = state_of(parts, relate, constrain)
    assume(st.parts)
    check_if(st, cond, body)


def cases(min_steps, max_steps):
    """The random inputs of `check_if`: one to three parts, each from
    steps with unit coefficients on at most two variables (joins make
    the only wide rows) or the default ones, and havocked variables:
    mostly all a body may name."""
    steps = st.one_of(
        product_steps(NAMES, min_steps, max_steps, coeffs=(1, -1), width=2),
        product_steps(NAMES, min_steps, max_steps),
    )
    free = st.one_of(st.just(NAMED), st.just(NAMED), st.sets(st.sampled_from(NAMED)))
    part = st.builds(product_of, steps, free)
    return st.tuples(
        st.lists(part, min_size=1, max_size=3),
        st.sampled_from(RELATE),
        st.sampled_from(CONSTRAIN),
        st.sampled_from(CONDS),
        st.sampled_from(BODIES),
    )


class TestKeepsIsTheGeneralWalk:
    @settings(max_examples=300, deadline=None)
    @given(cases(2, 10))
    def test_sample(self, case):
        run(*case)

    @pytest.mark.slow
    @settings(max_examples=1500, deadline=None)
    @given(cases(4, 24))
    def test_sweep(self, case):
        run(*case)

    def test_fixed_states_both_ways(self):
        """A free cell's weak update under a guard the state does not
        decide is kept, in one part or in two; under a guard the state
        entails, it is walked."""
        free = product_of([], NAMED)
        assert check_if(state_of([free], "i <= x"), "i == x", "v = 2 * w + 1;")
        assert check_if(state_of([free, free.assign("j", Lin.of(1))], "i <= x"), "i == x", "assume(r == v);")
        assert not check_if(state_of([free], "i == x"), "i == x", "v = 3;")


# each case below fails one check of `keeps`; where the case says so,
# the general walk changes the state, and elsewhere the check is only
# conservative
BASE = "proc p(n: int) {{ var {}: int; {} if (i == x) {{ {} }} }}"


def walk_to_if(prefix: str, body: str, flags=()):
    """The state a walk of prefix reaches, from an entry where every
    variable is free and the flags are zero, and the If after it."""
    locals_ = ", ".join(NAMES + flags)
    prog = parse_program(BASE.format(locals_, prefix, body))
    *pre, s = prog.body
    numeric = tuple(v for v in NAMES if v not in flags)
    entry = AbstractState(flags, {(0,) * len(flags): Product.top(numeric)})
    return Interpreter().block(pre, entry, []), s


@pytest.mark.parametrize("prefix, body, flags, changes", [
    ("assume(i <= x); v = 3;", "v = 5;", (), True),  # a named variable is bounded
    ("assume(i <= x); assume(v <= w);", "v = 5;", (), True),  # or related to another
    ("assume(i <= x); assume(w <= 0);", "v = w;", (), False),  # also one the body only reads
    ("i = 0;", "v = 5;", (), False),  # the condition's variables in two packs
    ("assume(i == x);", "v = 5;", (), True),  # the state entails the guard
    ("assume(i <= x);", "f = 1;", ("f",), True),  # the body writes a flag
])
def test_keeps_says_no(prefix, body, flags, changes):
    st, s = walk_to_if(prefix, body, flags)
    names = _weak_update(s, cond_to_formula(s.cond))
    assert names is not None
    assert not st.keeps(st.guard(cond_to_formula(s.cond))[0], names)
    after = walked(s, st)
    assert (after.parts.keys() != st.parts.keys() or after.to_formula() != st.to_formula()) == changes


def test_an_affine_part_is_walked():
    st, s = walk_to_if("assume(i <= x); assume(y == 2 * j);", "v = 5;")
    assert next(iter(st.parts.values())).aff is not None
    assert not kept(s, st)


@pytest.mark.parametrize("cond, body", [
    ("i == x", "v = r + 1; assume(r == v);"),  # an assume after its variables are named
    ("i == x", "assume(v == v);"),  # an equality of one variable
    ("i == x", "v = 1; assert(v == 1);"),
    ("i == v", "v = 1;"),  # a condition that reads a named variable
])
def test_other_shapes_are_walked(cond, body):
    s = if_stmt(cond, body)
    assert _weak_update(s, cond_to_formula(s.cond)) is None


def test_an_else_branch_is_walked():
    (s,) = parse_program("proc p() { var i, x, v: int; if (i == x) { v = 1; } else { v = 2; } }").body
    assert _weak_update(s, cond_to_formula(s.cond)) is None


def test_an_assume_after_its_variables_are_named_can_empty_the_branch():
    """Why the shape asks that no earlier statement names an assume's
    variables: the then-branch of this If is empty, so the general walk
    keeps only the else branch, though every part check holds."""
    st, s = walk_to_if("assume(i <= x);", "v = r + 1; assume(r == v);")
    assert st.keeps(st.guard(cond_to_formula(s.cond))[0], ("v", "r"))
    assert walked(s, st).to_formula() != st.to_formula()


# ------------------------------------------------- hits on the benchmark


def keeps_answers(monkeypatch, jobs) -> Counter:
    """The answers of `AbstractState.keeps` over one analysis pass of
    the jobs, and the count of Ifs walked on an abstract state."""
    answers = Counter()
    keeps, stmt = AbstractState.keeps, Interpreter.stmt

    def counted_keeps(self, g, names):
        kept = keeps(self, g, names)
        answers[kept] += 1
        return kept

    def counted_stmt(self, s, st, met):
        if isinstance(s, If) and isinstance(st, AbstractState):
            answers["ifs"] += 1
        return stmt(self, s, st, met)

    with monkeypatch.context() as m:
        m.setattr(AbstractState, "keeps", counted_keeps)
        m.setattr(Interpreter, "stmt", counted_stmt)
        for job in jobs:
            analyze_scalar(transform_program(decompose_accesses(parse_program(job.source)), job.cfg))
    return answers


def test_hits_per_wide_bounds_pass(monkeypatch):
    # every miss is a loop's first round, where i = 0 has just put i
    # in a pack of its own
    answers = keeps_answers(monkeypatch, workloads.wide_bounds(0))
    assert answers == {"ifs": 272, True: 224, False: 48}


def test_hits_on_a_corpus_job(monkeypatch):
    (job,) = [job for job in workloads.paper_corpus(0) if job.id == "dutch"]
    answers = keeps_answers(monkeypatch, [job])
    assert answers == {"ifs": 40, True: 22, False: 6}
