"""From scalar facts back to array facts.

A transformed program treats the tracked positions as arbitrary
parameters, so any invariant of its scalar state holds for every
admissible choice of positions. Reading the invariant that way gives
a universally quantified statement about the array contents:

    forall positions in U:  phi(positions, values, scalars)

where U, the position universe, collects the range constraints, the
ordering of the position parameters, and the focus precondition. The
transform decides U once, as `ScalarProgram.universe`; this module
reads it back. It builds that quantified form, decides entailment of
`ensures` clauses, and implements the left-neighbour strengthening for
ordered two-cell layouts.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Mapping

from .bridge import BridgeError, cond_to_formula, formula_to_cond
from .lang.ast import ArrRead, Target
from .lang.printer import cond_str
from .lia import (
    Budget,
    BudgetError,
    Formula,
    Lin,
    eliminate_quantifiers,
    exists,
    forall,
    implies,
    is_sat,
    land,
    lnot,
    rename,
    simplify,
    subst,
    to_str,
)
from .transform.core import Cell, ScalarProgram


class LiftError(ValueError):
    pass


# ------------------------------------------------------------- quantify


@dataclass(frozen=True)
class QuantifiedInvariant:
    """forall `indices` satisfying `universe`: `matrix` holds.

    Position parameters are quantified; everything else (program
    scalars, cell values) stays free. A cell's value variable denotes
    the final array content at its position, a snapshot variable the
    content at entry.
    """

    indices: tuple[str, ...]
    universe: Formula
    matrix: Formula
    cells: Mapping[str, tuple[Cell, ...]]
    # variables whose value depends on the tracked positions (observer
    # flags): each instantiation of the invariant gets its own copy
    per_position: tuple[str, ...] = ()

    def render(self) -> str:
        """Condition syntax of the source language where possible."""
        body = implies(self.universe, self.matrix)
        try:
            text = cond_str(formula_to_cond(simplify(body)))
        except BridgeError:
            text = to_str(body)
        quant = f"forall {', '.join(self.indices)}: " if self.indices else ""
        return quant + text


def quantify(phi: Formula, sp: ScalarProgram) -> QuantifiedInvariant:
    """Read a scalar invariant as a universal array invariant.

    phi must speak only of program scalars and generated cell
    variables; it is typically the exit state of an analysis of
    sp.program. The observer flags are the position-dependent
    variables.
    """
    indices = tuple(n for c in sp.all_cells() for n in c.index)
    allowed = set(sp.program.params) | set(sp.program.locals)
    loose = sorted(set(phi.free_vars()) - allowed)
    if loose:
        raise LiftError(f"invariant mentions unknown variables: {', '.join(loose)}")
    return QuantifiedInvariant(indices, sp.universe, phi, dict(sp.cells), sp.flags)


# --------------------------------------------------------- check_target


def _fresh(base: str, taken: set[str]) -> str:
    if base not in taken:
        return base
    n = 0
    while f"{base}~{n}" in taken:
        n += 1
    return f"{base}~{n}"


Accesses = dict[tuple[str, bool, tuple[Lin, ...]], str]


def _symbol(accesses: Accesses, array: str, initial: bool, terms: tuple[Lin, ...]) -> str:
    """The value symbol of one (array, entry/final, index terms) triple,
    minted on first use."""
    key = (array, initial, terms)
    sym = accesses.get(key)
    if sym is None:
        sym = accesses[key] = f"{array}@{'entry' if initial else 'final'}{len(accesses)}"
    return sym


def _cell_bindings(inv: QuantifiedInvariant, accesses: Accesses) -> list[dict[str, Lin]]:
    """Every way of pinning cells to accessed positions, one array at
    a time. Each binding is a substitution: index variables go to the
    position terms, value variables to the access symbols. Cells left
    out keep their own names (an arbitrary admissible position).

    A bound cell's value always routes through the canonical symbol
    for that position, even when the clause never mentions it:
    distinct bindings of one cell must not pin its free name to two
    different spots.
    """
    by_array: dict[str, list[tuple[bool, tuple[Lin, ...]]]] = {}
    for array, initial, terms in list(accesses):
        by_array.setdefault(array, []).append((initial, terms))

    out: list[dict[str, Lin]] = []
    for array, uses in sorted(by_array.items()):
        cs = inv.cells.get(array)
        if cs is None:
            continue  # untracked array: symbols stay unconstrained
        terms = []
        seen = set()
        for _initial, t in uses:
            if t not in seen:
                seen.add(t)
                terms.append(t)
        for t in terms:
            if len(t) != len(cs[0].index):
                raise LiftError(
                    f"target indexes {array} with {len(t)} subscripts, cells have {len(cs[0].index)}"
                )
        choices = [terms + [None] for _ in cs]
        for combo in itertools.product(*choices):
            if all(t is None for t in combo):
                continue
            env: dict[str, Lin] = {}
            for c, t in zip(cs, combo):
                if t is None:
                    continue
                for xv, term in zip(c.index, t):
                    env[xv] = term
                env[c.value] = Lin.var(_symbol(accesses, array, False, t))
                if c.init:
                    env[c.init] = Lin.var(_symbol(accesses, array, True, t))
            out.append(env)
    return out


def check_target(inv: QuantifiedInvariant, target: Target, *, budget: Budget | None = None) -> bool | None:
    """Does the lifted invariant entail the ensures clause? True when it
    does, False when the query has a model, None when the solver ran out
    of budget before deciding.

    The clause's indices become fresh constants, its array reads
    become value symbols, and the invariant is instantiated at every
    combination of accessed positions; the conjunction must leave the
    negated clause unsatisfiable. Instantiating at the mentioned
    positions is complete when enough cells track the right spots,
    and sound regardless.
    """
    taken = set(inv.matrix.free_vars()) | set(inv.universe.free_vars()) | set(inv.indices)
    for cs in inv.cells.values():
        for c in cs:
            taken.update(c.index)
            taken.add(c.value)
            if c.init:
                taken.add(c.init)
    index_map = {}
    for k in target.indices:
        nm = _fresh(k, taken)
        taken.add(nm)
        index_map[k] = nm

    accesses: Accesses = {}

    def read(e: ArrRead, index: tuple[Lin, ...]) -> Lin:
        terms = tuple(t.rename(index_map) for t in index)
        return Lin.var(_symbol(accesses, e.array, e.initial, terms))

    try:
        goal = rename(cond_to_formula(target.cond, read), index_map)
    except BridgeError as e:
        raise LiftError(f"no translation for the target: {e}") from e

    base = implies(inv.universe, inv.matrix)
    premises = [base]
    local = [v for v in inv.per_position if v in base.free_vars()]
    for n, env in enumerate(_cell_bindings(inv, accesses)):
        copy = subst(base, env)
        if local:
            # flags travel with the positions: each instantiation of
            # the invariant speaks about its own observer outcome
            copies = {}
            for v in local:
                copies[v] = _fresh(f"{v}~{n}", taken)
                taken.add(copies[v])
            copy = rename(copy, copies)
        premises.append(copy)

    query = land(*premises, lnot(goal))
    try:
        return is_sat(query, budget or Budget()) is None
    except BudgetError:
        return None


# ---------------------------------------------------------- reduce_dual


def _dual_array(sp: ScalarProgram) -> str:
    good = [
        name
        for name, spec in sp.cfg.arrays.items()
        if spec.ordered and spec.count == 2
    ]
    if len(good) != 1:
        raise LiftError("need exactly one ordered two-cell array")
    return good[0]


def reduce_dual(phi: Formula, sp: ScalarProgram, *, budget: Budget | None = None) -> Formula:
    """Strengthen an ordered-pair invariant without changing its
    meaning on arrays.

    A tuple (a, va, a', va') can only describe a real array if every
    position left of a' can also be filled: values must exist for
    them compatible with phi. With U the position universe (which holds
    a < a'), conjoining

        QE( forall a. exists va. U -> phi )

    removes the tuples that fail this, which is exactly the
    information a convex or disjunctive scalar domain loses about
    non-adjacent positions. Runs of phi through this are decreasing
    and idempotent; if elimination exceeds the budget, phi comes back
    unchanged (which is always sound) with a warning.
    """
    name = _dual_array(sp)
    left, right = sp.cells[name]
    if sp.cfg.focus is not None:
        allowed = set(sp.source.params) | {left.index[0], right.index[0]}
        if not set(sp.cfg.focus.free_vars()) <= allowed:
            warnings.warn(
                "focus mentions other tracked positions; skipping pair reduction",
                stacklevel=2,
            )
            return phi

    vals = [left.value] + ([left.init] if left.init else [])
    q = forall((left.index[0],), exists(vals, implies(sp.universe, phi)))
    try:
        return simplify(land(phi, eliminate_quantifiers(q, budget or Budget())))
    except BudgetError:
        warnings.warn("pair reduction ran out of budget; keeping the invariant as is", stacklevel=2)
        return phi
