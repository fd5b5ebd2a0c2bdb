"""Quantifier elimination for Presburger arithmetic, Cooper style.

Eliminates one integer variable at a time from a negation normal form
formula. The variable's coefficients are first scaled to a common value
l and replaced by a unit coefficient plus the divisibility constraint
l | x. Then, with D the lcm of the moduli of divisibility atoms on x:

    exists x. phi  ==  OR_{j in 1..D} phi_minusinf[x := j]
                    or OR_{b in lows} OR_{j in 0..D-1} phi[x := b + j]

where lows collects the terms b of lower-bound atoms x >= b and
phi_minusinf replaces lower bounds by false and upper bounds by true.
The mirror image (plus-infinity, upper boundary terms) is used instead
whenever it has fewer boundary terms. Formulas carry no quantifiers:
the caller names the variables to eliminate, either as the bound block
of `eliminate_quantifiers` or as the complement of `project`'s keep
list. A universal block is eliminated as its dual, not exists not. The
formula tree is never converted to DNF; substitution happens on the
whole tree, which keeps the blowup at |boundaries| * D copies per
eliminated variable.

A conjunction that pins x to an exact term (x >= t and x <= t both
present) short-circuits to a plain substitution.
"""

from __future__ import annotations

import math
from typing import Iterable

from .formula import (
    FALSE,
    TRUE,
    BudgetError,
    Formula,
    Lin,
    conj_literals,
    land,
    lnot,
    lor,
    nnf,
    simplify,
    subst,
)


class Budget:
    """Shared work counter for solver and QE calls."""

    def __init__(self, steps: int = 2_000_000) -> None:
        self.left = steps

    def tick(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise BudgetError("lia work budget exceeded")


def eliminate_quantifiers(f: Formula, bound: Iterable[str], budget: Budget | None = None) -> Formula:
    """The quantifier-free form of exists `bound`. f; every other
    variable stays free."""
    return _eliminate(f, tuple(bound), budget)


def project(f: Formula, keep: Iterable[str], budget: Budget | None = None) -> Formula:
    """Eliminate every variable of f not in `keep`."""
    keepset = set(keep)
    return _eliminate(f, tuple(v for v in f.free_vars() if v not in keepset), budget)


def _eliminate(f: Formula, bound: tuple[str, ...], budget: Budget | None) -> Formula:
    # neither entry point calls the other, so a traced call of either
    # is one elimination
    return simplify(_elim_block(bound, nnf(f), budget or Budget()))


def _elim_block(bound: tuple[str, ...], f: Formula, budget: Budget) -> Formula:
    """Eliminate a block of existential variables, cheapest first.

    The variables commute, so each round picks the one occurring in the
    fewest atoms; that keeps the substitution fan-out small and often
    grounds later variables before their turn comes.
    """
    pending = list(bound)
    while pending:
        counts = {v: 0 for v in pending}
        for a in f.atoms():
            for v in a.lin.vars():
                if v in counts:
                    counts[v] += 1
        pending.sort(key=lambda v: (counts[v], v))
        v = pending.pop(0)
        f = elim_exists(v, f, budget)
    return f


def elim_exists(x: str, f: Formula, budget: Budget) -> Formula:
    budget.tick()
    if x not in f.free_vars():
        return simplify(f)
    f = simplify(f)
    if f.kind == "or":
        return lor(*(elim_exists(x, d, budget) for d in f.args))
    if f.kind == "and":
        with_x = [a for a in f.args if x in a.free_vars()]
        without = [a for a in f.args if x not in a.free_vars()]
        if without:
            core = elim_exists(x, land(*with_x), budget)
            return simplify(land(land(*without), core))
        pinned = pinned_value(x, f)
        if pinned is not None:
            return simplify(subst(f, {x: pinned}))
        rng = _const_range(x, f)
        if rng is not None:
            lo, hi = rng
            budget.tick(hi - lo + 1)
            return simplify(
                lor(*(simplify(subst(f, {x: Lin.of(v)})) for v in range(lo, hi + 1)))
            )
    return _cooper(x, f, budget)


_ENUM_WIDTH = 24


def _const_range(x: str, f: Formula) -> tuple[int, int] | None:
    """Small constant interval for x forced by single-variable atoms."""
    lo: int | None = None
    hi: int | None = None
    for lit in conj_literals(f):
        if lit.kind != "ge":
            continue
        c = lit.lin.coeff(x)
        if c == 0 or not lit.lin.drop(x).is_const():
            continue
        k = lit.lin.const
        if c > 0:
            v = -(k // c)  # ceil(-k / c)
            lo = v if lo is None else max(lo, v)
        else:
            v = k // -c  # floor(k / -c)
            hi = v if hi is None else min(hi, v)
    if lo is None or hi is None or hi - lo >= _ENUM_WIDTH:
        return None
    return lo, hi


def pinned_value(x: str, f: Formula) -> Lin | None:
    """Term t with x == t forced by unit-coefficient atoms of the conjunction."""
    lows: set[Lin] = set()
    for lit in conj_literals(f):
        if lit.kind == "ge":
            c = lit.lin.coeff(x)
            if c == 1:
                lows.add(lit.lin)  # x + r >= 0, so x >= -r
    for lit in conj_literals(f):
        if lit.kind == "ge" and lit.lin.coeff(x) == -1:
            neg = -lit.lin
            if neg in lows:  # x >= t and x <= t pin x to t
                return lit.lin.drop(x)
    return None


def _cooper(x: str, f: Formula, budget: Budget) -> Formula:
    # 1. common coefficient l
    l = 1
    for a in f.atoms():
        c = a.lin.coeff(x)
        if c:
            l = l * abs(c) // math.gcd(l, abs(c))
    budget.tick(l.bit_length())

    def unitize(g: Formula) -> Formula:
        # rewrite so every atom mentions x with coefficient exactly +1
        if g.kind in ("ge", "dvd"):
            c = g.lin.coeff(x)
            if c == 0:
                return g
            k = l // abs(c)
            if g.kind == "ge":
                # scale by k (positive): coefficient of x becomes +-l
                lin = g.lin.scale(k)
                c2 = lin.coeff(x)
                rest = lin.drop(x)
                if c2 > 0:
                    return Formula("ge", lin=rest + Lin.var(x))
                return Formula("ge", lin=rest - Lin.var(x))
            lin = g.lin if c > 0 else -g.lin
            lin = lin.scale(k)
            rest = lin.drop(x)
            return Formula("dvd", lin=rest + Lin.var(x), mod=g.mod * k)
        if g.kind == "not":
            return Formula("not", args=(unitize(g.args[0]),))
        if g.kind in ("and", "or"):
            return Formula(g.kind, args=tuple(unitize(a) for a in g.args))
        return g

    g = unitize(f)
    if l > 1:
        g = land(g, Formula("dvd", lin=Lin.var(x), mod=l))

    # 2. collect boundaries and moduli (coefficient of x is now +-1)
    lows: list[Lin] = []
    highs: list[Lin] = []
    D = 1
    for a in g.atoms():
        c = a.lin.coeff(x)
        if c == 0:
            continue
        if a.kind == "dvd":
            D = D * a.mod // math.gcd(D, a.mod)
        elif c > 0:
            lows.append(-(a.lin.drop(x)))  # x >= -rest
        else:
            highs.append(a.lin.drop(x))  # x <= rest
    budget.tick(D + len(lows) + len(highs))

    lows = list(dict.fromkeys(lows))
    highs = list(dict.fromkeys(highs))
    use_low = len(lows) <= len(highs)
    bounds = lows if use_low else highs

    def at(term: Lin) -> Formula:
        budget.tick(4)
        return subst(g, {x: term})

    def inf_version(h: Formula) -> Formula:
        # drop inequality atoms on x: kept side true, other false
        if h.kind in ("ge", "dvd"):
            c = h.lin.coeff(x)
            if c == 0 or h.kind == "dvd":
                return h
            if (c > 0) == use_low:
                return FALSE  # the binding side
            return TRUE
        if h.kind == "not":
            inner = inf_version(h.args[0])
            return lnot(inner)
        if h.kind in ("and", "or"):
            parts = tuple(inf_version(a) for a in h.args)
            return land(*parts) if h.kind == "and" else lor(*parts)
        return h

    ginf = simplify(inf_version(g))
    disjuncts: list[Formula] = []
    if ginf.kind != "false":
        for j in range(1, D + 1):
            d = simplify(subst(ginf, {x: Lin.of(j if use_low else -j)}))
            if d.kind == "true":
                return TRUE
            if d.kind != "false":
                disjuncts.append(d)
    for b in bounds:
        for j in range(0, D):
            term = b + j if use_low else b - j
            d = simplify(at(term))
            if d.kind == "true":
                return TRUE
            if d.kind != "false":
                disjuncts.append(d)
    return simplify(lor(*disjuncts))

