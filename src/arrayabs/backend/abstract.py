"""Partitioned abstract interpretation of scalar programs, and the one
walker over scalar statements.

`Interpreter` walks an array-free program over any state with
`is_empty()`, `assign(var, lin)`, `forget(var)` (havoc), `guard(f)`,
`assume(g)`, `entails(g)` (a sound yes), `join(other)` and `bounded()`
(the state after a branch merge, within its cap). Once the state is
empty it skips the rest of the block, so dead code records no assert
verdicts. `AbstractState` and the path set of `exact.py` implement it.
Only `AbstractState` has loops (`loop` needs its `widen`, `leq` and
`collapse`) and flags; its `bounded` collapses the flag partitions past
`PARTITION_CAP`, which each loop head checks too.

Guard normal forms live in the walker. `guard(f)` turns the formula of
a condition into the pair (condition, negation) in the form that the
state's `assume` and `entails` take. The walker makes that pair once
per condition node and keeps it for its run only, so no cache outlives
an analysis. `AbstractState` takes a `Guard`, both formulas in negation
normal form, so each guard and its negation are normalised once per
analysis; the path set of `exact.py` takes the formulas as they are.

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
"Abstract interpretation frameworks", JLC 1992). Assertion checks
happen in one final pass over the head, so verdicts never depend on
intermediate iterates.

Widened elements are stored unreduced; guard assumes reduce their own
copies. Reducing the stored head element could re-tighten what the
widening just relaxed and loop forever. A reduced part keeps the memo
of `product.py`, so the next guard exchanges only the facts it adds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from ..bridge import BridgeError, cond_to_formula, expr_to_lin
from ..lang.ast import (
    Assert,
    Assign,
    Assume,
    Havoc,
    If,
    Num,
    Stmt,
    While,
)
from ..lia import Formula, Lin, lor, nnf
from .product import Product

Valuation = tuple  # of 0 | 1 | None per flag, None meaning unknown

WIDENING_DELAY = 2  # loop rounds that join before widening starts
PARTITION_CAP = 12  # flag partitions kept before they collapse into one


class AnalysisError(ValueError):
    pass


class Guard(NamedTuple):
    """A condition as `AbstractState` takes it: the condition and its
    negation, each in negation normal form."""

    holds: Formula
    fails: Formula


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

    @staticmethod
    def guard(f: Formula) -> tuple[Guard, Guard]:
        """f and its negation, as `assume` and `entails` take them."""
        g = Guard(nnf(f), nnf(f, True))
        return g, Guard(g.fails, g.holds)

    def assume(self, g: Guard) -> "AbstractState":
        return self.map(lambda el: el.assume(g.holds).reduce())

    def assign(self, var: str, lin: Lin) -> "AbstractState":
        return self.map(lambda el: el.assign(var, lin))

    def forget(self, var: str) -> "AbstractState":
        return self.map(lambda el: el.forget(var))

    def bounded(self) -> "AbstractState":
        return self.collapse() if len(self.parts) > PARTITION_CAP else self

    def assign_flag(self, flag: str, value: int) -> "AbstractState":
        """Move every bucket to flag = value, joining on collision."""
        i = self.flags.index(flag)
        out: dict[Valuation, Product] = {}
        for k, v in self.parts.items():
            nk = k[:i] + (value,) + k[i + 1:]
            out[nk] = out[nk].join(v) if nk in out else v
        return self._norm(out)

    def collapse(self) -> "AbstractState":
        """Merge every bucket into the all-unknown key; flag values
        become unknown."""
        if not self.parts:
            return self
        el = functools.reduce(Product.join, self.parts.values())
        return AbstractState(self.flags, {(None,) * len(self.flags): el})

    def entails(self, g: Guard) -> bool:
        """Sound entailment: the negation is unreachable in every bucket.
        g speaks of numeric variables only (the walker rejects the rest)."""
        return all(el.assume(g.fails).reduce().is_empty() for el in self.parts.values())

    def to_formula(self) -> Formula:
        """Disjunction of the buckets' numeric descriptions. Flags are
        partition keys only and never reach the formula."""
        parts = sorted(self.parts.items(), key=lambda kv: str(kv[0]))
        return lor(*(el.reduce().to_formula() for _, el in parts))


@dataclass(frozen=True)
class AssertVerdict:
    line: int
    formula: Formula
    proven: bool


@dataclass
class AnalysisResult:
    exit: AbstractState
    asserts: tuple[AssertVerdict, ...]

    def all_asserts_hold(self) -> bool:
        return all(a.proven for a in self.asserts)


@dataclass
class Interpreter:
    """The walker over scalar statements (module docstring). Asserts
    met with `check` set append their verdicts to `asserts`. Each
    condition is translated and guarded once: loop rounds and the check
    pass meet the same nodes again."""

    numeric: tuple[str, ...]
    flags: tuple[str, ...] = ()
    asserts: list[AssertVerdict] = field(default_factory=list)
    # id of a condition node -> (the node, its formula, the state's
    # guard of it and of its negation); holding the node keeps its id
    # from being reused while the entry lives
    _guards: dict[int, tuple] = field(default_factory=dict, init=False, repr=False)

    def _lin(self, expr) -> Lin:
        try:
            lin = expr_to_lin(expr)
        except BridgeError as e:
            raise AnalysisError(f"not scalar-linear: {e}") from e
        self._check_vars(lin.vars())
        return lin

    def _cond(self, cond, st) -> tuple:
        """The formula of a condition node, then `st.guard` of it."""
        hit = self._guards.get(id(cond))
        if hit is None:
            try:
                f = cond_to_formula(cond)
            except BridgeError as e:
                raise AnalysisError(f"condition not scalar: {e}") from e
            self._check_vars(f.free_vars())
            hit = self._guards[id(cond)] = (cond, f, *st.guard(f))
        return hit[1:]

    def _check_vars(self, vs: Iterable[str]) -> None:
        for v in vs:
            if v in self.flags:
                raise AnalysisError(f"observer flag {v} read by the program")
            if v not in self.numeric:
                raise AnalysisError(f"unknown variable {v}")

    def block(self, stmts: Iterable[Stmt], st, check: bool):
        for s in stmts:
            if st.is_empty():
                break
            st = self.stmt(s, st, check)
        return st

    def stmt(self, s: Stmt, st, check: bool):
        if isinstance(s, Assign):
            if s.var not in self.flags:
                return st.assign(s.var, self._lin(s.expr))
            if not isinstance(s.expr, Num):
                raise AnalysisError("flags may only be assigned constants")
            return st.assign_flag(s.var, s.expr.value)
        if isinstance(s, Havoc):
            if s.var in self.flags:
                raise AnalysisError(f"observer flag {s.var} havocked by the program")
            self._check_vars((s.var,))
            return st.forget(s.var)
        if isinstance(s, Assume):
            _, g, _ = self._cond(s.cond, st)
            return st.assume(g)
        if isinstance(s, Assert):
            f, g, _ = self._cond(s.cond, st)
            if check:
                self.asserts.append(AssertVerdict(s.line, f, st.entails(g)))
            return st.assume(g)
        if isinstance(s, If):
            _, g, not_g = self._cond(s.cond, st)
            a = self.block(s.then, st.assume(g), check)
            b = self.block(s.els, st.assume(not_g), check)
            return a.join(b).bounded()
        if isinstance(s, While):
            return self.loop(s, st, check)
        raise AnalysisError(f"array statement reached the analysis: {s!r}")

    def loop(self, s: While, st: AbstractState, check: bool) -> AbstractState:
        _, g, not_g = self._cond(s.cond, st)
        # A head that collapsed once stays collapsed: later iterates are
        # merged into its one key too. Otherwise they bring back keys
        # that the widening passes through unwidened, and the sequence
        # need not stabilise.
        collapsed = False

        def step(head: AbstractState) -> AbstractState:
            nxt = st.join(self.block(s.body, head.assume(g), False))
            return nxt.collapse() if collapsed else nxt

        inv = st
        rounds = 0
        while True:
            nxt = step(inv)
            if nxt.leq(inv):
                # inv is a post-fixpoint, so nxt = F#(inv) still covers
                # every reachable head state: the head is nxt, which
                # recovers bounds the widening threw away
                inv = nxt
                break
            rounds += 1
            inv = inv.join(nxt) if rounds <= WIDENING_DELAY else inv.widen(nxt)
            if len(inv.parts) > PARTITION_CAP:
                inv, collapsed = inv.collapse(), True
        if check:
            self.block(s.body, inv.assume(g), True)
        return inv.assume(not_g)


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
    interp = Interpreter(numeric, flags)
    exit_state = interp.block(program.body, entry, True)
    return AnalysisResult(exit=exit_state, asserts=tuple(interp.asserts))
