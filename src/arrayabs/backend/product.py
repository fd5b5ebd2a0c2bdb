"""Reduced product of the octagon and affine-equality domains.

Both components track the same variable tuple. Reduction exchanges
facts in both directions: affine rows the octagon can hold (unit
coefficients on one or two variables) become octagon bounds, and the
equalities of the closed octagon, read off its matrix, become affine
rows. The exchange repeats until the octagon adds no affine row, when
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
ones (by identity). Pushing an entailed row or adding a held equality
changes nothing, so the result is that of the full exchange. The memo
stays valid through meets, which alone carry it on: an octagon meet
only tightens, so it still entails the rows, and an affine meet only
adds rows, so it still holds the equalities. Every other operation
(`join`, `widen`, `assign`, `forget`) returns an element with no memo,
which `reduce` treats with the full exchange. The memo is never part of
`==` or the hash.

Reduction must not run on widening results: re-tightening a widened
bound can oscillate and break termination, so widen() is purely
componentwise and callers reduce again only after the chain is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..lia import FALSE, Formula, Lin, land
from .affine import AffineEqs
from .octagon import Octagon


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
        return Product(Octagon.top(vars), AffineEqs.top(vars))

    @staticmethod
    def bottom(vars: Sequence[str]) -> "Product":
        return Product(Octagon.bottom(vars), AffineEqs.bottom(vars))

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
            # affine rows -> octagon (rows are equalities, push both
            # sides; the octagon ignores rows it cannot hold)
            if a is not pushed:
                held = set(pushed.rows) if pushed is not None else ()
                for row, (coeffs, b) in zip(a.rows, a.equalities()):
                    if row not in held:
                        lin = Lin.make(coeffs, -b)
                        o = o.assume(lin).assume(-lin)
                pushed = a
                if o.is_empty():
                    return self._as_bottom()
            # equalities of the closed octagon -> affine rows; add_eq
            # hands back the element itself for an implied row
            before = a
            for coeffs, k in o.equalities(read):
                a = a.add_eq(Lin.make(coeffs, -k))
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
        """Meet with an over-approximation of f, which is in negation
        normal form (`lia.nnf`): any other node, and divisibility, is
        dropped. A meet that changes nothing hands back self."""
        k = f.kind
        if k == "true":
            return self
        if k == "false":
            return self._as_bottom()
        if k == "ge":
            return self._meet(self.oct.assume(f.lin), self.aff)
        if k == "and":
            out = self
            atoms = [g.lin for g in f.args if g.kind == "ge"]
            for g in f.args:
                out = out.assume(g)
            # complementary inequality pairs pin an affine equality
            for i, li in enumerate(atoms):
                for lj in atoms[i + 1:]:
                    if lj == -li:
                        out = out._meet(out.oct, out.aff.add_eq(li))
            return out
        if k == "or":
            parts = [self.assume(g) for g in f.args]
            out = parts[0]
            for p in parts[1:]:
                out = out.join(p)
            return out
        return self

    # -- output

    def to_formula(self) -> Formula:
        if self.is_empty():
            return FALSE
        return land(self.oct.close().to_formula(), self.aff.to_formula())
