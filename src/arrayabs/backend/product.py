"""Reduced product of the octagon and affine-equality domains.

Both components share one variable tuple, an `affine.Vars`, and
reduction works by position in it: no name and no `Lin` passes between
them. It exchanges facts in both directions: affine rows the octagon
can hold (unit coefficients on one or two variables) go to
`Octagon.add` as (position, coefficient) terms, and the equalities of
the closed octagon, read off its matrix as integer rows, go to
`AffineEqs.add_eq` as they are. Names are resolved only where a `Lin`
or a condition comes in (`assign`, `forget`, `compile_guard`), through the
tuple's one name -> position map, and where a `Formula` goes out
(`to_formula`).
The exchange repeats until the octagon adds no affine row, when
neither side can change again; it terminates because octagon entries
only tighten and affine rank only grows.

The exchange is semi-naive: the iterated reduction of Cousot, Cousot
and Mauborgne (FoSSaCS 2011), run only on what changed, as the packs of
Singh, Puschel and Vechev (PLDI 2015) are. An element remembers that
it is reduced, the affine element whose rows its octagon already
entails, and the packs of the octagon whose equalities its affine part
already holds. `reduce` hands a reduced element back
as is, pushes only rows that the remembered affine element does not
have, and reads equalities only from packs that are not the remembered
ones (by identity), and of those only the equalities that no
remembered pack holds (by value), since the affine part holds all of
theirs. Pushing an entailed row or adding a held equality changes
nothing, so the result is that of the full exchange. The memo
stays valid through meets, which alone carry it on: an octagon meet
only tightens, so it still entails the rows, and an affine meet only
adds rows, so it still holds the equalities. Every other operation
(`join`, `widen`, `assign`, `forget`) returns an element with no memo,
which `reduce` treats with the full exchange. The memo is never part of
`==` or the hash.

Guards. A condition meets an element as a guard compiled over
positions: `compile_guard(f, vars, neg)` lowers `nnf(f, neg)`, node
for node, into a small tree. An octagonal inequality becomes the terms
and bound of `Octagon.add` (`octagon.lower`); any other inequality, a
divisibility and its negation meet as top; an "and" meets its parts in
turn, then adds the row lin = 0 (`Vars.row_of`) for each pair
lin >= 0, -lin >= 0 among its inequalities, octagonal or not; an "or"
joins the meets of its parts, each from the same element. The tree has
the shape of the normal form, which `land` and `lor` have flattened,
deduplicated and folded (a literal beside its `lnot` folds to false
under "and" and to true under "or"), so it meets exactly as that
formula walked node by node would, self handed back included; what it
saves is reading names and pairing inequalities again at every meet.
A guard holds positions of one `Vars` tuple, so it is good for the
elements of one analysis only; the walker compiles each condition once
per run and drops its guards with it (`abstract.py`). `assume`
compiles the formula it is handed, for callers outside a walk.

Reduction must not run on widening results: re-tightening a widened
bound can oscillate and break termination, so widen() is purely
componentwise and callers reduce again only after the chain is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..lia import FALSE, Formula, Lin, eq0, land, nnf
from .affine import AffineEqs, Vars
from .octagon import Octagon, lower, octagonal


@dataclass(frozen=True)
class Product:
    oct: Octagon
    aff: AffineEqs
    # the reduction memo (module docstring)
    _reduced: bool = field(default=False, compare=False, repr=False)
    _pushed: AffineEqs | None = field(default=None, compare=False, repr=False)
    _read: tuple = field(default=(), compare=False, repr=False)

    @staticmethod
    def top(vars: Sequence[str]) -> "Product":
        vs = Vars.of(vars)
        return Product(Octagon.top(vs), AffineEqs.top(vs))

    @staticmethod
    def bottom(vars: Sequence[str]) -> "Product":
        vs = Vars.of(vars)
        return Product(Octagon.bottom(vs), AffineEqs.bottom(vs))

    @property
    def vars(self) -> tuple[str, ...]:
        return self.oct.vars

    def is_empty(self) -> bool:
        return self.oct.is_empty() or self.aff.is_empty()

    def _as_bottom(self) -> "Product":
        return Product.bottom(self.vars)

    def _meet(self, o: Octagon, a: AffineEqs) -> "Product":
        """self met with facts that made o and a: self itself when
        neither moved, else the meet, which keeps the memo."""
        if o is self.oct and a is self.aff:
            return self
        return Product(o, a, False, self._pushed, self._read)

    def reduce(self) -> "Product":
        if self._reduced:
            return self
        o, a = self.oct.close(), self.aff
        pushed, read = self._pushed, self._read
        while True:
            if o.is_empty() or a.is_empty():
                return self._as_bottom()
            # affine rows -> octagon: each row sum = b that it can hold
            # (one or two unit coefficients), as sum >= b, then sum <= b
            if a is not pushed:
                held = set(pushed.rows) if pushed is not None else ()
                n = len(a.vars)
                for row in a.rows:
                    if row in held:
                        continue
                    up = [(i, row[i]) for i in range(n) if row[i]]
                    if octagonal([c for _, c in up]):
                        o = o.add([(i, -c) for i, c in up], -row[n]).add(up, row[n])
                pushed = a
                if o.is_empty():
                    return self._as_bottom()
            # equalities of the closed octagon -> affine rows; add_eq
            # hands back the element itself for an implied row
            before = a
            for row in o.equalities(read):
                a = a.add_eq(row)
            read = o.packs
            if a is before:
                return Product(o, a, True, a, read)

    # -- lattice

    def leq(self, other: "Product") -> bool:
        if self.is_empty():
            return True
        return self.oct.leq(other.oct) and self.aff.leq(other.aff)

    def join(self, other: "Product") -> "Product":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return Product(self.oct.join(other.oct), self.aff.join(other.aff))

    def widen(self, other: "Product") -> "Product":
        # componentwise only; never reduce a widened element
        if self.is_empty():
            return other
        return Product(self.oct.widen(other.oct), self.aff.widen(other.aff))

    # -- transfer

    def assign(self, v: str, lin: Lin) -> "Product":
        return Product(self.oct.assign(v, lin), self.aff.assign(v, lin))

    def forget(self, v: str) -> "Product":
        return Product(self.oct.forget(v), self.aff.forget(v))

    def assume(self, f: Formula) -> "Product":
        """Meet with f, through its guard (module docstring). A meet
        that changes nothing hands back self."""
        return compile_guard(f, self.vars).meet(self)

    # -- output

    def to_formula(self) -> Formula:
        """The reduced element: its octagon, and the affine rows the
        octagon cannot hold. Reduction has met the octagon with every
        other row, so writing those again would add nothing."""
        r = self.reduce()
        if r.is_empty():
            return FALSE
        lins = (Lin.make(zip(r.aff.vars, row), -row[-1]) for row in r.aff.rows)
        rows = [eq0(lin) for lin in lins if not octagonal([c for _, c in lin.coeffs])]
        return land(r.oct.to_formula(), *rows)


# -- guards


class Guard:
    """A condition compiled over the positions of one `Vars` tuple;
    `meet(p)` is `p.assume` of it. This base meets as top."""

    __slots__ = ()

    def meet(self, p: Product) -> Product:
        return p


class _Bottom(Guard):
    __slots__ = ()

    def meet(self, p: Product) -> Product:
        return p._as_bottom()


class _Atom(Guard):
    """An octagonal inequality as the terms and bound of `Octagon.add`."""

    __slots__ = ("terms", "k")

    def __init__(self, terms: list[tuple[int, int]], k: int) -> None:
        self.terms, self.k = terms, k

    def meet(self, p: Product) -> Product:
        return p._meet(p.oct.add(self.terms, self.k), p.aff)


class _And(Guard):
    """Parts met in turn, then the affine rows of the complementary
    inequality pairs among the conjuncts."""

    __slots__ = ("parts", "rows")

    def __init__(self, parts: list[Guard], rows: list[tuple[int, ...]]) -> None:
        self.parts, self.rows = parts, rows

    def meet(self, p: Product) -> Product:
        for g in self.parts:
            p = g.meet(p)
        for row in self.rows:
            p = p._meet(p.oct, p.aff.add_eq(row))
        return p


class _Or(Guard):
    """The join of the parts, each met from the same element."""

    __slots__ = ("parts",)

    def __init__(self, parts: list[Guard]) -> None:
        self.parts = parts

    def meet(self, p: Product) -> Product:
        first, *rest = [g.meet(p) for g in self.parts]
        for q in rest:
            first = first.join(q)
        return first


_TOP, _BOTTOM = Guard(), _Bottom()


def compile_guard(f: Formula, vars: Sequence[str], neg: bool = False) -> Guard:
    """The guard of f, or of its negation when neg, over the positions
    of vars (module docstring)."""
    return _lowered(nnf(f, neg), Vars.of(vars))


def _lowered(f: Formula, vs: Vars) -> Guard:
    """The guard of f, a formula in negation normal form: its tree,
    node for node."""
    k = f.kind
    if k == "false":
        return _BOTTOM
    if k == "ge":
        low = lower(f.lin, vs.pos)
        return _TOP if low is None else _Atom(*low)
    if k not in ("and", "or"):  # true, a divisibility or its negation
        return _TOP
    parts = [_lowered(a, vs) for a in f.args]
    if k == "or":
        return _Or(parts)
    # complementary inequality pairs pin an affine equality, lin = 0
    lins = [a.lin for a in f.args if a.kind == "ge"]
    rows = [tuple(vs.row_of(li)) for i, li in enumerate(lins) if -li in lins[i + 1:]]
    parts = [g for g in parts if g is not _TOP]
    if not rows and len(parts) <= 1:
        return parts[0] if parts else _TOP
    return _And(parts, rows)
