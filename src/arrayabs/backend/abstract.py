"""Partitioned abstract interpretation of scalar programs, and the one
walker over scalar statements.

`Interpreter` walks an array-free program over any state with
`is_empty()`, `assign(var, lin)`, `forget(var)` (havoc), `assume(f)`,
`entails(f)` (a sound yes), `join(other)` and `bounded()` (the state
after a branch merge, within its cap). Once the state is empty it skips
the rest of the block, so dead code records no assert verdicts.
`AbstractState` and the path set of `exact.py` implement it. Only
`AbstractState` has loops (`loop` needs its `widen`, `leq` and
`collapse`) and flags; its `bounded` collapses the flag partitions past
`PARTITION_CAP`, which each loop head checks too.

The abstract state is a map from flag valuations to product-domain
elements. Flags are write-only booleans assigned constants by
instrumented branches; they carry no numeric content and are excluded
from the numeric universe. Assigning a flag moves partitions between
buckets (joining on collision), so each bucket's element describes
exactly the runs that reached it with those flag values. With no flags
the state is a single bucket and the analysis is a plain product-domain
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
widening just relaxed and loop forever.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

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
from ..lia import FALSE, Formula, Lin, eq, land, lnot, lor
from .product import Product

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

    def assume(self, f: Formula) -> "AbstractState":
        return self.map(lambda el: el.assume(f).reduce())

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

    def entails(self, f: Formula) -> bool:
        """Sound entailment: the negation is unreachable in every bucket.
        f speaks of numeric variables only (the walker rejects the rest)."""
        neg = lnot(f)
        return all(el.assume(neg).reduce().is_empty() for el in self.parts.values())

    def to_formula(self) -> Formula:
        """Disjunction of bucket descriptions, flag values included."""
        disjuncts = []
        for k, el in sorted(self.parts.items(), key=lambda kv: str(kv[0])):
            lits = [
                eq(Lin.var(fl), Lin.of(v))
                for fl, v in zip(self.flags, k)
                if v is not None
            ]
            disjuncts.append(land(*lits, el.reduce().to_formula()))
        return lor(*disjuncts) if disjuncts else FALSE


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
    condition is translated once: loop rounds and the check pass meet
    the same nodes again."""

    numeric: tuple[str, ...]
    flags: tuple[str, ...] = ()
    asserts: list[AssertVerdict] = field(default_factory=list)
    # id of a condition node -> (the node, its formula); holding the
    # node keeps its id from being reused while the entry lives
    _formulas: dict[int, tuple[object, Formula]] = field(default_factory=dict, init=False, repr=False)

    def _lin(self, expr) -> Lin:
        try:
            lin = expr_to_lin(expr)
        except BridgeError as e:
            raise AnalysisError(f"not scalar-linear: {e}") from e
        self._check_vars(lin.vars())
        return lin

    def _cond(self, cond) -> Formula:
        hit = self._formulas.get(id(cond))
        if hit is not None:
            return hit[1]
        try:
            f = cond_to_formula(cond)
        except BridgeError as e:
            raise AnalysisError(f"condition not scalar: {e}") from e
        self._check_vars(f.free_vars())
        self._formulas[id(cond)] = (cond, f)
        return f

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
            return st.assume(self._cond(s.cond))
        if isinstance(s, Assert):
            f = self._cond(s.cond)
            if check:
                self.asserts.append(AssertVerdict(s.line, f, st.entails(f)))
            return st.assume(f)
        if isinstance(s, If):
            f = self._cond(s.cond)
            a = self.block(s.then, st.assume(f), check)
            b = self.block(s.els, st.assume(lnot(f)), check)
            return a.join(b).bounded()
        if isinstance(s, While):
            return self.loop(s, st, check)
        raise AnalysisError(f"array statement reached the analysis: {s!r}")

    def loop(self, s: While, st: AbstractState, check: bool) -> AbstractState:
        f = self._cond(s.cond)
        # A head that collapsed once stays collapsed: later iterates are
        # merged into its one key too. Otherwise they bring back keys
        # that the widening passes through unwidened, and the sequence
        # need not stabilise.
        collapsed = False

        def step(head: AbstractState) -> AbstractState:
            nxt = st.join(self.block(s.body, head.assume(f), False))
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
            self.block(s.body, inv.assume(f), True)
        return inv.assume(lnot(f))


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
