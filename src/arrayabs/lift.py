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
at the index terms the clause reads, all positions at once. Clause
indices `k` become `k@` and array reads symbols such as `t@final0`,
names no program may declare. A premise that left a position free
could never change the verdict, and observer flags never reach the
invariant; `check_target` says why.

The query is built by one walk per binding over the negation normal
form of the invariant (`_instance`): an atom that names a bound
variable is substituted, any other passed on as it is, a constant atom
folds to true or false, and an `and` or `or` drops its unit and
collapses to its zero. Nodes are built as they stand, with none of the
flattening, deduplication or complement scan of `land` and `lor`. The
query, the `and` of the premises and the negated clause, is not
simplified either.

The query is decided by `lia.split`, the one depth-first
split of the library, with integer octagons as its conjunctions. Its
literals are octagonal, ±x ±y >= c, whenever the invariant is: the
invariant comes from the octagon × affine domain and clauses compare
positions and values by unit differences, so every paper-corpus query
is of that kind. The meet conjoins each literal with `Octagon.add`, on
the terms `octagon.lower` makes of it, which closes incrementally, and
refutes a branch as soon as its octagon is empty. A leaf whose octagon
is not empty has a model: a tightly closed octagon that is not empty
has an integer point (Bagnara, Hill and Zaffanella, "An improved tight
closure algorithm for integer octagonal constraints", VMCAI 2008;
Lahiri and Musuvathi, "An efficient decision procedure for UTVPI
constraints", FroCoS 2005).
A query with any other atom, a non-unit coefficient, three or more
variables, or a divisibility, goes whole to `lia.is_sat`, which is the
same split with a Cooper meet and decides it exactly. The octagon
meet lives here: `lia`, the exact core under the backend, does not
import the backend's domains.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, Mapping

from .backend.affine import Vars
from .backend.octagon import Octagon, lower
from .bridge import BridgeError, cond_to_formula, formula_to_cond
from .lang.ast import ArrRead, Target
from .lang.printer import cond_str
from .lia import (
    FALSE,
    TRUE,
    Budget,
    BudgetError,
    Formula,
    Lin,
    dvd,
    eliminate_quantifiers,
    ge0,
    implies,
    is_sat,
    land,
    lnot,
    nnf,
    rename,
    simplify,
    split,
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
        body = simplify(implies(self.universe, self.matrix))
        try:
            text = cond_str(formula_to_cond(body))
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

    Each clause index `k` becomes the constant `k@` and each array read
    a value symbol such as `t@final0`: `check_program` keeps `@` out of
    declared names, so neither meets a name of the invariant. Each
    premise is the invariant, U -> M, instantiated at one complete
    binding (`_cell_bindings`); the premises must leave the negated
    clause unsatisfiable. This is sound by instantiation of the
    universal, and complete when enough cells track the right spots.

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

    The query (the premises and the negated clause) is built in
    negation normal form: U -> M is put in it once, before the
    bindings, each premise is one walk of it (`_instance`, module
    docstring), and the clause is negated by `nnf(goal, True)`. The
    query is decided exactly, as built (`_refuted`).
    `budget` pays one step per binding, one per node of the split, and
    the steps of `is_sat`; running out gives None, never False.
    """
    index_map = {k: f"{k}@" for k in target.indices}

    accesses: Accesses = {}

    def read(e: ArrRead, index: tuple[Lin, ...]) -> Lin:
        terms = tuple(t.rename(index_map) for t in index)
        return Lin.var(_symbol(accesses, e.array, e.initial, terms))

    try:
        goal = rename(cond_to_formula(target.cond, read), index_map)
    except BridgeError as e:
        raise LiftError(f"no translation for the target: {e}") from e

    base = nnf(implies(inv.universe, inv.matrix))
    budget = budget or Budget()
    try:
        indices = tuple(Lin.var(index_map[k]) for k in target.indices)
        premises = [_instance(base, env) for env in _cell_bindings(inv, accesses, indices, budget)]
        return _refuted(Formula("and", args=(*premises, nnf(goal, True))), budget)
    except BudgetError:
        return None


def _instance(f: Formula, env: Mapping[str, Lin]) -> Formula:
    """f, in negation normal form, at the binding env (module
    docstring): an `and` stops at its first false part and drops its
    true ones, an `or` the other way round."""
    k = f.kind
    if k == "ge" or k == "dvd":
        if not any(v in env for v, _ in f.lin.coeffs):
            return f
        return ge0(f.lin.subst(env)) if k == "ge" else dvd(f.mod, f.lin.subst(env))
    if k == "not":
        return lnot(_instance(f.args[0], env))
    if k != "and" and k != "or":
        return f
    zero, unit = (FALSE, TRUE) if k == "and" else (TRUE, FALSE)
    args = []
    for a in f.args:
        g = _instance(a, env)
        if g.kind == zero.kind:
            return zero
        if g.kind != unit.kind:
            args.append(g)
    if len(args) < 2:
        return args[0] if args else unit
    return Formula(k, args=tuple(args))


def _refuted(query: Formula, budget: Budget) -> bool:
    """Whether the query, which arrives in negation normal form, has no
    integer model: `lia.split` with an octagon meet when every atom is
    octagonal, else `is_sat` on the query as given. Each distinct atom
    is lowered to `Octagon.add` terms once, and the split hands the
    meet only atoms of the query.

    Unsimplified, the answer is still exact, since the split decides
    the formula whatever its shape: it opens nested `and`s as it walks,
    a duplicate literal meets the octagon again to no effect, and a
    literal beside its complement empties its branch's octagon, where
    `land` would have folded the pair to false. The shape costs only
    split nodes, that is budget steps."""
    vs = Vars.of(query.free_vars())
    terms = {a: lower(a.lin, vs.pos) if a.kind == "ge" else None for a in query.atoms()}
    if None in terms.values():
        return is_sat(query, budget) is None

    def meet(o: Octagon, lits: list[Formula]) -> Octagon | None:
        for lit in lits:
            o = o.add(*terms[lit])
            if o.empty:
                return None
        return o

    return split(query, meet, Octagon.top(vs), budget) is None


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
    non-adjacent positions. Formulas have no quantifiers, so the
    universal is eliminated as its dual. With fits = QE(exists va. U ->
    phi), hole = QE(exists a. not fits) holds of the tuples that have a
    position no value fits, and the conjunct is not hole.
    Runs of phi through this are decreasing and idempotent; if
    elimination exceeds the budget, phi comes back unchanged (which is
    always sound) with a warning.
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
    budget = budget or Budget()
    try:
        fits = eliminate_quantifiers(implies(sp.universe, phi), vals, budget)
        hole = eliminate_quantifiers(lnot(fits), (left.index[0],), budget)
        return simplify(land(phi, simplify(nnf(hole, True))))
    except BudgetError:
        warnings.warn("pair reduction ran out of budget; keeping the invariant as is", stacklevel=2)
        return phi
