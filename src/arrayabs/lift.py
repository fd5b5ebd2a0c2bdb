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

An ensures clause is checked the way the decision procedure for the
array property fragment does it (Bradley, Manna and Sipma, "What's
decidable about arrays?", VMCAI 2006): the invariant is instantiated
at the index terms the clause reads, all positions at once. A premise
that left a position free could never change the verdict, and observer
flags never reach the invariant; `check_target` says why.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping

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
    sp.program.
    """
    indices = tuple(n for c in sp.all_cells() for n in c.index)
    allowed = set(sp.program.params) | set(sp.program.locals)
    loose = sorted(set(phi.free_vars()) - allowed)
    if loose:
        raise LiftError(f"invariant mentions unknown variables: {', '.join(loose)}")
    return QuantifiedInvariant(indices, sp.universe, phi, dict(sp.cells))


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


def _cell_bindings(
    inv: QuantifiedInvariant, accesses: Accesses, indices: tuple[Lin, ...], budget: Budget
) -> Iterator[dict[str, Lin]]:
    """Every complete binding: each cell of each tracked array pinned
    to an index term at which the clause reads that array. A tracked
    array the clause does not read is pinned at the terms of its width
    at which the clause reads any array, or else at the clause's
    quantified `indices`; any term is sound, by instantiation of the
    universal.
    Each binding is a substitution: index variables go to the terms,
    value variables to the access symbols. The product is charged to
    `budget`, one step per binding, before the first one is made.

    A bound cell's value always routes through the canonical symbol
    for that position, even when the clause never mentions it:
    distinct bindings of one cell must not pin its free name to two
    different spots.
    """
    terms: dict[str, list[tuple[Lin, ...]]] = {array: [] for array in inv.cells}
    for array, _initial, t in accesses:
        if array in terms and t not in terms[array]:
            width = len(inv.cells[array][0].index)
            if len(t) != width:
                raise LiftError(f"target indexes {array} with {len(t)} subscripts, cells have {width}")
            terms[array].append(t)
    read = list(dict.fromkeys(t for _array, _initial, t in accesses))
    for array, ts in terms.items():
        if not ts:
            width = len(inv.cells[array][0].index)
            ts += [t for t in read if len(t) == width] or itertools.product(indices, repeat=width)
    cells = [(array, c) for array in sorted(inv.cells) for c in inv.cells[array]]
    choices = [terms[array] for array, _ in cells]
    budget.tick(math.prod(map(len, choices)))
    for combo in itertools.product(*choices):
        env: dict[str, Lin] = {}
        for (array, c), t in zip(cells, combo):
            env.update(zip(c.index, t))
            env[c.value] = Lin.var(_symbol(accesses, array, False, t))
            if c.init:
                env[c.init] = Lin.var(_symbol(accesses, array, True, t))
        yield env


def check_target(inv: QuantifiedInvariant, target: Target, *, budget: Budget | None = None) -> bool | None:
    """Does the lifted invariant entail the ensures clause? True when it
    does, False when the query has a model, None when the budget ran
    out before deciding.

    The clause's indices become fresh constants and its array reads
    become value symbols. Each premise is the invariant, U -> M,
    instantiated at one complete binding (`_cell_bindings`); the
    premises must leave the negated clause unsatisfiable. This is sound
    by instantiation of the universal, and complete when enough cells
    track the right spots.

    No other premise could change the answer. U holds 0 <= x for every
    position x, so a premise that leaves x free is made true by x = -1;
    a free position occurs in no premise that binds it, nor in the
    clause, so all such premises hold at once, whatever the rest of the
    query says. The uninstantiated invariant and every partial binding
    are of that kind. With no tracked cell the one complete binding is
    empty, and its premise is the invariant itself. Observer flags
    never reach M: per-instance copies of them would only add an
    existential over the flags, which every part of the exit state
    satisfies.
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
    budget = budget or Budget()
    try:
        indices = tuple(Lin.var(index_map[k]) for k in target.indices)
        premises = [subst(base, env) for env in _cell_bindings(inv, accesses, indices, budget)]
        return is_sat(land(*premises, lnot(goal)), budget) is None
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
