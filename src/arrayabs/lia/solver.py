"""Satisfiability and entailment for linear integer arithmetic.

is_sat splits the boolean structure depth first (a small DPLL without
learning) down to conjunctions of literals, then decides each
conjunction exactly by eliminating variables one at a time with the
Cooper engine. Model values are recovered by back substitution: once
the variables v1..vn have been eliminated in order, the last
intermediate formula has a single free variable, whose satisfying
values form a finite union of D-periodic sets anchored at boundary
terms, so scanning the candidate anchors in ascending order finds the
least value in that set. The result is deterministic.

Budgets bound the total work; exceeding one raises BudgetError instead
of returning a possibly wrong verdict.
"""

from __future__ import annotations

import math
from typing import Mapping

from .formula import (
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
    budget.tick()
    k = f.kind
    if k == "true":
        return {}
    if k == "false":
        return None
    if k == "or":
        for d in f.args:
            m = _sat(d, budget)
            if m is not None:
                return m
        return None
    if k == "and":
        lits = [a for a in f.args if a.is_literal()]
        complex_ = [a for a in f.args if not a.is_literal()]
        if not complex_:
            return _sat_int_conj(land(*lits), budget)
        if lits and _sat_int_conj(land(*lits), budget) is None:
            return None
        split = complex_[0]
        rest = [a for a in f.args if a is not split]
        assert split.kind == "or", split.kind
        for d in split.args:
            m = _sat(simplify(land(*rest, d)), budget)
            if m is not None:
                return m
        return None
    return _sat_int_conj(f, budget)


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
