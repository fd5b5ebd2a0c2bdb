"""Reduced product of the octagon and affine-equality domains.

Both components track the same variable tuple. Reduction exchanges
facts in both directions: affine rows the octagon can hold (unit
coefficients on one or two variables) become octagon bounds, and the
equalities of the closed octagon, read off its matrix, become affine
rows. The exchange repeats until the octagon adds no affine row, when
neither side can change again; it terminates because octagon entries
only tighten and affine rank only grows.

Reduction must not run on widening results: re-tightening a widened
bound can oscillate and break termination, so widen() is purely
componentwise and callers reduce again only after the chain is stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..lia import FALSE, Formula, Lin, land, nnf
from .affine import AffineEqs
from .octagon import Octagon


@dataclass(frozen=True)
class Product:
    oct: Octagon
    aff: AffineEqs

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

    def reduce(self) -> "Product":
        o, a = self.oct.close(), self.aff
        while True:
            if o.is_empty() or a.is_empty():
                return self._as_bottom()
            # affine rows -> octagon (rows are equalities, push both
            # sides; the octagon ignores rows it cannot hold)
            for coeffs, b in a.equalities():
                lin = Lin.make(coeffs, -b)
                o = o.assume(lin).assume(-lin)
            if o.is_empty():
                return self._as_bottom()
            # equalities of the closed octagon -> affine rows; add_eq
            # hands back the element itself for an implied row
            before = a
            for coeffs, k in o.equalities():
                a = a.add_eq(Lin.make(coeffs, -k))
            if a is before:
                return Product(o, a)

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
        """Meet with an over-approximation of f (negations pushed to
        atoms first, unknown atoms dropped)."""
        return self._assume(nnf(f))

    def _assume(self, f: Formula) -> "Product":
        k = f.kind
        if k == "true":
            return self
        if k == "false":
            return self._as_bottom()
        if k == "ge":
            return Product(self.oct.assume(f.lin), self.aff)
        if k == "and":
            out = self
            atoms = [g.lin for g in f.args if g.kind == "ge"]
            for g in f.args:
                out = out._assume(g)
            # complementary inequality pairs pin an affine equality
            for i, li in enumerate(atoms):
                for lj in atoms[i + 1:]:
                    if lj == -li:
                        out = Product(out.oct, out.aff.add_eq(li))
            return out
        if k == "or":
            parts = [self._assume(g) for g in f.args]
            out = parts[0]
            for p in parts[1:]:
                out = out.join(p)
            return out
        return self  # divisibility or its negation: no information taken

    # -- output

    def to_formula(self) -> Formula:
        if self.is_empty():
            return FALSE
        return land(self.oct.close().to_formula(), self.aff.to_formula())
