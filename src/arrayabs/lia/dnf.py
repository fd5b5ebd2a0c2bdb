"""Disjunctive normal form with light pruning."""

from __future__ import annotations

from .formula import BudgetError, Formula, land, lnot, lor, nnf, simplify


def to_dnf(f: Formula, cap: int = 4096) -> list[list[Formula]]:
    """List of literal conjunctions whose disjunction is equivalent to f.

    Literals are atoms, boolean variables, or their negations.
    Contradictory and duplicate conjunctions are removed, as is any
    conjunction subsumed by a weaker one. Output order is lexicographic
    on the literal encodings, so it is deterministic. Raises
    BudgetError past `cap` disjuncts.
    """
    f = simplify(nnf(f))
    if f.kind == "false":
        return []
    if f.kind == "true":
        return [[]]
    results: list[frozenset[Formula]] = []
    seen: set[frozenset[Formula]] = set()

    def emit(lits: frozenset[Formula]) -> None:
        if lits in seen:
            return
        seen.add(lits)
        results.append(lits)
        if len(results) > cap:
            raise BudgetError(f"DNF exceeded {cap} disjuncts")

    def walk(g: Formula, ctx: frozenset[Formula]) -> None:
        if g.kind == "true":
            emit(ctx)
            return
        if g.kind == "false":
            return
        if g.is_literal():
            if lnot(g) in ctx:
                return
            emit(ctx | {g})
            return
        if g.kind == "or":
            for d in g.args:
                walk(d, ctx)
            return
        assert g.kind == "and"
        lits = [a for a in g.args if a.is_literal()]
        complex_ = [a for a in g.args if not a.is_literal()]
        for lit in lits:
            if lnot(lit) in ctx or lnot(lit) in lits:
                return
        ctx = ctx | set(lits)
        if not complex_:
            emit(ctx)
            return
        head, *rest = complex_
        for d in head.args:  # head is an or-node
            walk(simplify(land(d, *rest)), ctx)

    walk(f, frozenset())
    # drop conjunctions strictly subsumed by a weaker member
    keep: list[frozenset[Formula]] = []
    results_sets = set(results)
    for s in results:
        if any(o < s for o in results_sets):
            continue
        keep.append(s)
    ordered = sorted(keep, key=lambda s: sorted(_lit_key(l) for l in s))
    return [sorted(s, key=_lit_key) for s in ordered]


def _lit_key(lit: Formula):
    neg = lit.kind == "not"
    core = lit.args[0] if neg else lit
    if core.kind in ("ge", "dvd"):
        return (0, core.kind, core.lin.coeffs, core.lin.const, core.mod, neg)
    return (1, core.name, (), 0, 0, neg)


def dnf_to_formula(disjuncts: list[list[Formula]]) -> Formula:
    return lor(*(land(*d) for d in disjuncts))
