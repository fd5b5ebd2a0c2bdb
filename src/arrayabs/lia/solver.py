"""Satisfiability and entailment for linear integer arithmetic.

`split` is the one walk over and/or nodes that decides satisfiability,
depth first (a small DPLL without learning), with the caller's theory
deciding each conjunction. `is_sat` is `split` with a Cooper meet: it
decides the literals gathered so far by eliminating variables one at a
time, and keeps a model. Model values are recovered by back
substitution: once v1..vn have been eliminated in order, the last
formula has a single free variable, whose satisfying values form a
finite union of D-periodic sets anchored at boundary terms, so scanning
the anchors in ascending order finds the least. It is deterministic.

Budgets bound the total work; exceeding one raises BudgetError instead
of returning a possibly wrong verdict.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, TypeVar

from .formula import (
    TRUE,
    Formula,
    LiaError,
    Lin,
    land,
    lnot,
    nnf,
    simplify,
    subst,
)
from .qe import Budget, elim_exists, pinned_value

Model = dict[str, int]
_S = TypeVar("_S")  # the state of a split


def is_sat(f: Formula, budget: Budget | None = None) -> Model | None:
    """A satisfying model, or None when unsatisfiable. Returned models
    assign every variable of f."""
    budget = budget or Budget()
    all_vars = f.free_vars()
    f = simplify(nnf(f))
    quick = _quick_model(f)
    model = quick if quick is not None else _sat(f, budget)
    if model is None:
        return None
    out = dict(model)
    for v in all_vars:
        out.setdefault(v, 0)
    return out


def entails(gamma: Formula, psi: Formula, budget: Budget | None = None) -> bool:
    """True iff every model of gamma satisfies psi."""
    return is_sat(land(gamma, lnot(psi)), budget) is None


def equivalent(a: Formula, b: Formula, budget: Budget | None = None) -> bool:
    return entails(a, b, budget) and entails(b, a, budget)


def split(f: Formula, meet: Callable[[_S, list[Formula]], _S | None], state: _S, budget: Budget) -> _S | None:
    """The state of the first branch of f (in negation normal form) that
    `meet` accepts, else None; `meet(state, lits)` is the state with
    `lits` conjoined, None when that is unsatisfiable. Each node of the
    walk takes one step of `budget`, pops its pending conjuncts off a
    stack, opening `and` nodes and putting `or` nodes aside, and meets
    its state with the literals it gathered. Then the first disjunction
    splits, its arguments tried in order, each pushed above the other
    disjunctions in a child node."""

    def node(state: _S, todo: list[Formula]) -> _S | None:
        budget.tick()
        lits, ors = [], []
        while todo:
            g = todo.pop()
            if g.kind == "and":
                todo += reversed(g.args)
            elif g.kind == "or":
                ors.append(g)
            elif g.kind == "false":
                return None
            elif g.kind != "true":
                lits.append(g)
        state = meet(state, lits)
        if state is None or not ors:
            return state
        first, *rest = ors
        for d in first.args:
            out = node(state, [*reversed(rest), d])
            if out is not None:
                return out
        return None

    return node(state, [f])


# ---------------------------------------------------------------------------


def _quick_model(f: Formula) -> Model | None:
    """Try a few cheap assignments before real solving."""
    fv = f.free_vars()
    if len(fv) > 6:
        return None
    base = {v: 0 for v in fv}
    candidates = [base]
    consts: set[int] = {0, 1, -1}
    for a in f.atoms():
        consts.add(-a.lin.const)
        consts.add(a.lin.const)
    small = sorted(c for c in consts if abs(c) <= 8)[:8]
    if len(fv) <= 3:
        for v in fv:
            for c in small:
                m = dict(base)
                m[v] = c
                candidates.append(m)
    for m in candidates:
        if f.evaluate(m):
            return m
    return None


def _sat(f: Formula, budget: Budget) -> Model | None:
    """`split` with a Cooper meet: the literals' conjunction and a model."""

    def meet(state: tuple[Formula, Model], lits: list[Formula]) -> tuple[Formula, Model] | None:
        conj = land(state[0], *lits)
        model = _sat_int_conj(conj, budget)
        return None if model is None else (conj, model)

    out = split(f, meet, (TRUE, {}), budget)
    return None if out is None else out[1]


def _sat_int_conj(f: Formula, budget: Budget) -> Model | None:
    """Decide a conjunction of integer literals, producing a model.

    One variable is eliminated per round (cheapest first: pinned by an
    equality, else fewest atom occurrences); the remainder is solved
    recursively and the eliminated variable recovered from the
    single-variable residue. Depth-first with early exit, so only one
    branch of each Cooper disjunction is materialized at a time.
    """
    f = simplify(f)
    if f.kind == "false":
        return None
    if f.kind == "true":
        return {}
    fv = f.free_vars()
    if not fv:
        return {} if f.evaluate({}) else None
    quick = _quick_model(f)
    if quick is not None:
        return quick
    x = _pick_var(f, fv)
    g = simplify(elim_exists(x, f, budget))
    m = _sat(g, budget)
    if m is None:
        return None
    env = {v: m.get(v, 0) for v in fv if v != x}
    psi = _substitute_model(f, env)
    val = _solve_single(x, psi, budget)
    if val is None:
        raise LiaError(f"model extraction failed for {x}")
    env[x] = val
    return env


def _pick_var(f: Formula, fv: tuple[str, ...]) -> str:
    for v in fv:
        if pinned_value(v, f) is not None:
            return v
    counts = {v: 0 for v in fv}
    for a in f.atoms():
        for v in a.lin.vars():
            if v in counts:
                counts[v] += 1
    return min(fv, key=lambda v: (counts[v], fv.index(v)))


def _substitute_model(f: Formula, model: Mapping[str, int]) -> Formula:
    return simplify(subst(f, {v: Lin.of(c) for v, c in model.items()}))


def _solve_single(x: str, f: Formula, budget: Budget) -> int | None:
    """Least satisfying value of the only free integer variable of f."""
    if x not in f.free_vars():
        # any value works if f is satisfiable at all; keep it deterministic
        return 0 if _sat(f, budget) is not None else None
    consts: list[int] = [0]
    D = 1
    for a in f.atoms():
        c = a.lin.coeff(x)
        if c == 0:
            continue
        rest = a.lin.drop(x)
        if not rest.is_const():
            raise LiaError("solve_single expects a single free variable")
        if a.kind == "dvd":
            D = D * a.mod // math.gcd(D, a.mod)
        elif c > 0:
            consts.append(-(rest.const // c))  # ceil(-r/c)
        else:
            consts.append(rest.const // -c)  # floor(r/-c)
    anchors: set[int] = set()
    for b in consts:
        for j in range(0, D):
            anchors.add(b + j)
            anchors.add(b - j)
    m = min(consts)
    for j in range(1, D + 1):
        anchors.add(m - j)
    for val in sorted(anchors):
        budget.tick()
        if f.evaluate({x: val}):
            return val
    return None
