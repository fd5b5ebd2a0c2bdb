"""Partitioned abstract interpretation of scalar programs, and the one
walker over scalar statements.

`Interpreter` walks an array-free program over any state with
`is_empty()`, `assign(var, lin)`, `forget(var)` (havoc), `guard(f)`,
`assume(g)`, `refutes(g)` (a sound "no state satisfies g"),
`keeps(g, names)` (a weak update under g leaves the state as it is,
below), `join(other)` and `bounded()` (the state after a branch merge,
within its cap). Once the state is empty it skips the rest of the
block, so dead code records no assert.
`AbstractState` and the path set of `exact.py` implement it. Only
`AbstractState` has loops (`loop` needs its `widen`, `leq` and
`collapse`) and flags; its `bounded` collapses the flag partitions past
`PARTITION_CAP`, which each loop head checks too.

The walker knows no flags and trusts its program: `transform_program`
checked it, and no condition reads a flag. It raises only on a
statement type it does not know; a flag's assignment goes to `assign`.

A walk decides no assert. It records each assert it meets, with the
negation of its condition and the state that reached it, in the list
its caller hands in. Once the whole program is walked, each analysis
hands the list to `assert_verdicts`, which asks each state, in walk
order, to refute the negation: that answer is the assert's verdict.

The guards live in the walker. `guard(f)` turns the formula of a
condition into the pair (condition, negation) in the form that the
state's `assume` and `refutes` take. The walker makes that pair once
per condition, keyed by its value, so two nodes that hold the same
condition share it; it keeps the pair for its run only, so no cache
outlives an analysis. `AbstractState` compiles both over the
positions of the `Vars` tuple its parts share
(`product.compile_guard`): the negation normal form lowered once into
a tree of octagon terms and affine rows, which meets exactly as that
formula would, complement folding included. It holds positions of
that one tuple, so it is good for one run only. The path set of `exact.py` takes the formula and its `lnot`.

Weak updates. The transform turns each array access into one guarded
update per cell: `if (i == x) { v = e; }` for a write, `havoc r;
if (i == x) { assume(r == v); }` for a read. Most of them cannot
change the state, and the walker hands it back from those. Which `If`s
qualify is decided once per node (`_weak_update`): no else branch; a
then-body that only assigns, havocs, or assumes v == w of two distinct
variables that no earlier statement of the body names; and a
condition that reads none of the variables N the body names.
`AbstractState.keeps(g, N)` holds when no variable of N is a flag and
every part passes all of these checks: its affine part is absent; each
variable of N is alone in its pack of the closed octagon, and
unconstrained; the condition's variables share one pack P; the guard is
an octagon atom, or a conjunction of atoms with no wide row; and the
closed octagon does not entail the guard. Then the general walk (meet
the guard, walk the body, meet the negation, join, `bounded`) gives
each part back, so the walker returns `st.bounded()`:
- The guard and its negation cover every point, and tight closure is
  exact, so the variables outside N come out as they went in. Every
  entry of P is attained by an integer point, which one of the two
  branches keeps; the body writes and relates only variables of N,
  free and outside P, and each of its assumes meets two variables
  still free, so the then-branch keeps every point of the guarded
  state. The entrywise join is P again, and every other pack is one
  both branches share.
- The else branch keeps the named variables free: it is not empty, as
  the octagon does not entail the guard, and no constraint it holds
  names a variable of N. So the join makes them free again, whatever
  the then-branch set.
- No pack is merged: the condition's variables already share P, whose
  join over the same variables stays whole, and the named ones never
  move out of packs of their own.
- No affine row survives the join: the guard's rows are its atoms'
  equalities, the else branch's part stays absent, and a row that
  holds on both branches names no variable of N and holds on every
  point of the state, whose closed octagon entails it.
`_Paths.keeps` always says no.

The abstract state is a map from flag valuations to product-domain
elements. Flags are write-only booleans assigned constants by
instrumented branches; they carry no numeric content and are excluded
from the numeric universe. Assigning a flag moves partitions between
buckets (joining on collision), so each bucket's element describes
exactly the runs that reached it with those flag values. Flags are
partition keys only: the exit formula is the disjunction of the
buckets' numeric parts and never names a flag. With no flags the state
is a single bucket and the analysis is a plain product-domain
interpretation.

Loops run an ascending pass (join for WIDENING_DELAY steps, then
widening) until one more round, nxt = F#(inv), lies below inv. The
loop head is that last ascending iterate nxt; there is no narrowing
operator. It is sound because inv is then a post-fixpoint: nxt
over-approximates F(gamma(inv)), which contains the least fixpoint, and
nxt <= inv makes it one finite decreasing step (Cousot and Cousot,
"Abstract interpretation frameworks", JLC 1992).

The asserts a loop records are those of one walk of its body from the
head. Every round records the walk it makes and keeps only its own
record. When the last round left the head as it found it (nxt == inv,
tested as inv <= nxt), that round walked the body from the head
itself, and its record becomes the loop's: the walk closes and reduces
the head before anything else, and from there depends only on the
value of each state, not on how it is stored, so a second walk from an
equal head would record the same asserts with equal states. When the
head shrank on the last round (nxt < inv), and only if the body holds
an assert, the body is walked once more, from nxt. So no body is
walked twice from the same head, and every verdict is the one a
separate check pass from the head would give. Verdicts read at the
head are sound because the head covers every reachable state of the
loop; the last round's record alone would be sound too, since inv is a
post-fixpoint, and an iteration strategy may choose where it reads its
results (Bourdoncle, "Efficient chaotic iteration strategies with
widenings", FMPA 1993), but from the larger inv it proves less.
Verdicts never depend on the iterates before the last round.

Widened elements are stored unreduced; guard assumes reduce their own
copies. Reducing the stored head element could re-tighten what the
widening just relaxed and loop forever. A part's affine half is built
only where some operation makes a row its octagon cannot hold
(`product.py`); the reduction after a guard of any other part is just
its octagon's closure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from ..bridge import cond_to_formula, expr_to_lin
from ..lang.ast import (
    Assert,
    Assign,
    Assume,
    Cmp,
    Cond,
    Havoc,
    If,
    Stmt,
    Var,
    While,
    walk_stmts,
)
from ..lia import Formula, Lin, lor
from .octagon import FREE
from .product import Guard, Product, compile_guard

Valuation = tuple  # of 0 | 1 | None per flag, None meaning unknown

WIDENING_DELAY = 2  # loop rounds that join before widening starts
PARTITION_CAP = 12  # flag partitions kept before they collapse into one


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class AbstractState:
    """Disjunction over flag valuations of product elements."""

    flags: tuple[str, ...]
    parts: Mapping[Valuation, Product]

    def is_empty(self) -> bool:
        return not self.parts

    def _norm(self, parts: dict[Valuation, Product]) -> "AbstractState":
        return AbstractState(
            self.flags, {k: v for k, v in parts.items() if not v.is_empty()}
        )

    def map(self, fn) -> "AbstractState":
        return self._norm({k: fn(v) for k, v in self.parts.items()})

    def join(self, other: "AbstractState") -> "AbstractState":
        out = dict(self.parts)
        for k, v in other.parts.items():
            out[k] = out[k].join(v) if k in out else v
        return self._norm(out)

    def widen(self, other: "AbstractState") -> "AbstractState":
        out = dict(other.parts)
        for k, v in self.parts.items():
            out[k] = v.widen(other.parts[k]) if k in other.parts else v
        return AbstractState(self.flags, out)

    def leq(self, other: "AbstractState") -> bool:
        return all(
            k in other.parts and v.leq(other.parts[k]) for k, v in self.parts.items()
        )

    def guard(self, f: Formula) -> tuple[Guard, Guard]:
        """f and its negation compiled over the variables every part
        shares; the state has a part, since the walker meets no
        condition once its state is empty."""
        vs = next(iter(self.parts.values())).vars
        return compile_guard(f, vs), compile_guard(f, vs, True)

    def assume(self, g: Guard) -> "AbstractState":
        return self.map(lambda el: g.meet(el).reduce())

    def assign(self, var: str, lin: Lin) -> "AbstractState":
        """Assign a numeric variable in every bucket, or move every bucket
        to flag = lin (a constant), joining on collision."""
        if var not in self.flags:
            return self.map(lambda el: el.assign(var, lin))
        i = self.flags.index(var)
        out: dict[Valuation, Product] = {}
        for k, v in self.parts.items():
            nk = k[:i] + (lin.const,) + k[i + 1:]
            out[nk] = out[nk].join(v) if nk in out else v
        return self._norm(out)

    def forget(self, var: str) -> "AbstractState":
        return self.map(lambda el: el.forget(var))

    def bounded(self) -> "AbstractState":
        return self.collapse() if len(self.parts) > PARTITION_CAP else self

    def collapse(self) -> "AbstractState":
        """Merge every bucket into the all-unknown key; flag values
        become unknown."""
        if not self.parts:
            return self
        el = functools.reduce(Product.join, self.parts.values())
        return AbstractState(self.flags, {(None,) * len(self.flags): el})

    def keeps(self, g: Guard, names: tuple[str, ...]) -> bool:
        """Whether an `If` under g whose then-body names only `names`,
        in the shape `_weak_update` accepts, hands the state back as it
        met it: no name is a flag, and every part keeps it (`_keeps`,
        module docstring)."""
        atoms = g.atoms
        return bool(atoms) and not any(v in self.flags for v in names) and all(
            _keeps(el, atoms, names) for el in self.parts.values()
        )

    def refutes(self, g: Guard) -> bool:
        """Sound refutation: g is unreachable in every bucket. g speaks
        of numeric variables only: no condition reads a flag."""
        return all(g.meet(el).reduce().is_empty() for el in self.parts.values())

    def to_formula(self) -> Formula:
        """Disjunction of the buckets' numeric descriptions. Flags are
        partition keys only and never reach the formula."""
        parts = sorted(self.parts.items(), key=lambda kv: str(kv[0]))
        return lor(*(el.to_formula() for _, el in parts))


def _keeps(el: Product, atoms: tuple, names: tuple[str, ...]) -> bool:
    """The checks of one part (module docstring): an absent affine part,
    each name alone in its pack and unconstrained, the condition's
    variables in one pack, and a condition the octagon does not entail."""
    if el.aff is not None:
        return False
    o = el.oct.close()
    packs, pos = o.packs, o.vars.pos
    if any(packs[pos[v]].m != FREE for v in names):
        return False
    pack = packs[atoms[0][0][0][0]]
    return all(packs[i] is pack for terms, _ in atoms for i, _ in terms) and not all(
        o.entails(terms, k) for terms, k in atoms
    )


def _weak_update(s: If, f: Formula) -> tuple[str, ...] | None:
    """The variables the then-body of s names, if s has the shape of a
    cell's weak update (module docstring), else None; f is the formula
    of its condition."""
    if s.els:
        return None
    names: list[str] = []
    for b in s.then:
        if isinstance(b, Assign):
            names += (b.var, *expr_to_lin(b.expr).vars())
        elif isinstance(b, Havoc):
            names.append(b.var)
        elif isinstance(b, Assume) and _equated(b.cond, names):
            names += (b.cond.left.name, b.cond.right.name)
        else:
            return None
    read = {v for g in f.walk() if g.lin is not None for v in g.lin.vars()}
    return None if read.intersection(names) else tuple(dict.fromkeys(names))


def _equated(c: Cond, named: list[str]) -> bool:
    """Whether c is v == w of two distinct variables, neither in named."""
    return (
        isinstance(c, Cmp) and c.op == "=="
        and isinstance(c.left, Var) and isinstance(c.right, Var)
        and c.left.name != c.right.name
        and c.left.name not in named and c.right.name not in named
    )


class _Met(NamedTuple):
    """An assert met on a walk, with the state's guard of its negated
    condition and the state that reached it; its verdict is
    `state.refutes(fails)`."""

    line: int
    formula: Formula
    fails: object
    state: object


@dataclass(frozen=True)
class AssertVerdict:
    line: int
    formula: Formula
    proven: bool


def assert_verdicts(met: list[_Met]) -> tuple[AssertVerdict, ...]:
    """The verdicts of the asserts a walk met, in walk order."""
    return tuple(AssertVerdict(m.line, m.formula, m.state.refutes(m.fails)) for m in met)


@dataclass
class AnalysisResult:
    exit: AbstractState
    asserts: tuple[AssertVerdict, ...]

    def all_asserts_hold(self) -> bool:
        return all(a.proven for a in self.asserts)


class Interpreter:
    """The walker over scalar statements (module docstring). `block`,
    `stmt` and `loop` decide no assert: they append each assert a walk
    meets to the list `met` they are handed, in walk order, and the
    analysis resolves the list once the program is walked. Each
    condition is translated and guarded once, whatever node holds it:
    loop rounds meet the same nodes again, and the transform repeats
    conditions such as the cell guards at each access. Whether an `If`
    has the shape of a weak update is decided once per node too
    (`_weak_update`)."""

    def __init__(self) -> None:
        # a condition -> (its formula, the state's guard of it and of
        # its negation)
        self._guards: dict[Cond, tuple] = {}
        # id of an If -> `_weak_update` of it; the program, which holds
        # every node, outlives the run, so no id is reused meanwhile,
        # and a node is not hashed at each visit
        self._updates: dict[int, tuple[str, ...] | None] = {}

    def _cond(self, cond: Cond, st) -> tuple:
        """The formula of a condition, then `st.guard` of it."""
        hit = self._guards.get(cond)
        if hit is None:
            f = cond_to_formula(cond)
            hit = self._guards[cond] = (f, *st.guard(f))
        return hit

    def block(self, stmts: Iterable[Stmt], st, met: list[_Met]):
        for s in stmts:
            if st.is_empty():
                break
            st = self.stmt(s, st, met)
        return st

    def stmt(self, s: Stmt, st, met: list[_Met]):
        if isinstance(s, Assign):
            return st.assign(s.var, expr_to_lin(s.expr))
        if isinstance(s, Havoc):
            return st.forget(s.var)
        if isinstance(s, Assume):
            _, g, _ = self._cond(s.cond, st)
            return st.assume(g)
        if isinstance(s, Assert):
            f, g, not_g = self._cond(s.cond, st)
            met.append(_Met(s.line, f, not_g, st))
            return st.assume(g)
        if isinstance(s, If):
            f, g, not_g = self._cond(s.cond, st)
            try:
                names = self._updates[id(s)]
            except KeyError:
                names = self._updates[id(s)] = _weak_update(s, f)
            if names is not None and st.keeps(g, names):
                return st.bounded()
            a = self.block(s.then, st.assume(g), met)
            b = self.block(s.els, st.assume(not_g), met)
            return a.join(b).bounded()
        if isinstance(s, While):
            return self.loop(s, st, met)
        raise AnalysisError(f"not a scalar statement: {s!r}")

    def loop(self, s: While, st: AbstractState, met: list[_Met]) -> AbstractState:
        """The exit state of the loop. To `met` go the asserts of one
        walk of the body from the head: the last round's record when
        that round left the head unchanged, else that of one more walk,
        made only when the body holds an assert (module docstring)."""
        _, g, not_g = self._cond(s.cond, st)
        # A head that collapsed once stays collapsed: later iterates are
        # merged into its one key too. Otherwise they bring back keys
        # that the widening passes through unwidened, and the sequence
        # need not stabilise.
        collapsed = False

        def step(head: AbstractState, rec: list[_Met]) -> AbstractState:
            nxt = st.join(self.block(s.body, head.assume(g), rec))
            return nxt.collapse() if collapsed else nxt

        inv = st
        rounds = 0
        while True:
            rec: list[_Met] = []
            nxt = step(inv, rec)
            if nxt.leq(inv):
                break
            rounds += 1
            inv = inv.join(nxt) if rounds <= WIDENING_DELAY else inv.widen(nxt)
            if len(inv.parts) > PARTITION_CAP:
                inv, collapsed = inv.collapse(), True
        # inv is a post-fixpoint, so nxt = F#(inv) still covers every
        # reachable head state: the head is nxt, which recovers bounds
        # the widening threw away. rec is the walk from inv, which is
        # the walk from the head unless the head shrank. Given nxt <= inv,
        # they are equal when inv <= nxt.
        if not inv.leq(nxt) and any(isinstance(x, Assert) for x in walk_stmts(s.body)):
            rec = []
            self.block(s.body, nxt.assume(g), rec)
        met += rec
        return nxt.assume(not_g)


def analyze_scalar(sp) -> AnalysisResult:
    """Abstractly interpret a transformed program, partitioning on its
    observer flags and tracking everything else numerically.

    Entry follows the evaluation rules: parameters are unconstrained,
    locals (flags included) start at zero.
    """
    program, flags = sp.program, sp.flags
    numeric = tuple(v for v in program.params + program.locals if v not in flags)
    el = Product.top(numeric)
    for v in program.locals:
        if v not in flags:
            el = el.assign(v, Lin.of(0))
    entry = AbstractState(flags, {(0,) * len(flags): el})
    met: list[_Met] = []
    exit_state = Interpreter().block(program.body, entry, met)
    return AnalysisResult(exit=exit_state, asserts=assert_verdicts(met))
