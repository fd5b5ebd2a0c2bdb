"""Affine equalities domain (Karr).

Elements are conjunctions of equalities sum(c_i * v_i) = b kept as
integer rows in reduced echelon form, one row per pivot variable: each
row is primitive (its entries have gcd 1), has a positive pivot and is
zero in the other pivot columns. That is the rational reduced row
echelon form with every row scaled to integers, so the form is
canonical and equality is a tuple comparison. Elimination
cross-multiplies and divides by the row gcd, which keeps entries small
without fractions. Joins compute the affine hull: the
implied-equality spaces of both sides are intersected (Zassenhaus
block trick). Assignments go through a fresh column so invertible
updates like x = x + 1 stay exact. Both first take shortcuts that
return what the long path returns (see each method). Chains are
finite (each strict join drops rank), so no widening is needed.

Integer semantics: rows with no common integer solution, like 2x = 1,
or 2x - z = -1 with 2y + z = 0 (together 2x + 2y = -1), mark the
element empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..lia import FALSE, Formula, Lin, TRUE, eq0, land

Row = tuple[int, ...]  # coefficients per variable, then the constant

# Rows being worked on are lists, stored rows tuples: short-lived tuples
# of many lengths would fill the interpreter's per-length tuple free
# lists and raise the peak memory of a run.


def _primitive(row: Sequence[int]) -> Sequence[int]:
    """row divided by the gcd of its entries, first nonzero entry positive."""
    g = math.gcd(*row)
    if g == 0:
        return row
    if next(x for x in row if x) < 0:
        g = -g
    return row if g == 1 else [x // g for x in row]


def _eliminate(row: Sequence[int], pivot: Sequence[int], c: int) -> Sequence[int]:
    """Primitive combination of row and pivot that is zero in column c."""
    a, b = pivot[c], row[c]
    return _primitive([a * x - b * y for x, y in zip(row, pivot)])


def _rref(rows: list[Sequence[int]], width: int) -> tuple[list[Sequence[int]], list[int]]:
    """Reduce over the first `width` columns; the remaining columns
    ride along. Rows go one at a time into a basis keyed by pivot
    column: a row is reduced by the basis, and if a pivot is left, the
    basis rows are cleared in its column. Returns the pivot rows in
    column order, then the rows left nonzero with no pivot (with width
    covering every variable column, those are contradictions 0 = b),
    and the pivot columns. With no row left over, the pivot rows are
    the reduced row echelon form, which is unique: the order of the
    rows does not change them."""
    basis: dict[int, Sequence[int]] = {}
    rest = []
    for row in rows:
        for c, pivot in basis.items():
            if row[c]:
                row = _eliminate(row, pivot, c)
        c = next((c for c, x in enumerate(row) if x), len(row))
        if c >= width:
            if c < len(row):
                rest.append(row)
            continue
        row = _primitive(row)
        for d, r in basis.items():
            if r[c]:
                basis[d] = _eliminate(r, row, c)
        basis[c] = row
    cols = sorted(basis)
    return [basis[c] for c in cols] + rest, cols


def _integral(rows: list[Sequence[int]], cols: list[int], n: int) -> bool:
    """Whether reduced rows (no 0 = b row among them) have a common
    integer solution. A row with pivot 1 is solved by its pivot
    variable, which no other row mentions, so only rows with a larger
    pivot constrain the rest. Those are met one at a time over the
    integer solutions of the ones before, kept as x = x0 + sum t_j u_j
    with t integer: unimodular steps on the u_j leave one u_j that the
    row sees, and the row fixes its t_j or has no integer solution."""
    hard = [row for row, c in zip(rows, cols) if row[c] != 1]
    if not hard:
        return True
    x0 = [0] * n
    basis = [[int(i == j) for i in range(n)] for j in range(n)]
    for row in hard:
        a = row[:n]
        c = [sum(ai * ui for ai, ui in zip(a, u)) for u in basis]
        rest = row[n] - sum(ai * xi for ai, xi in zip(a, x0))
        nz = [j for j, cj in enumerate(c) if cj]
        while len(nz) > 1:
            m = min(nz, key=lambda j: abs(c[j]))
            for j in nz:
                if j != m:
                    q = c[j] // c[m]
                    c[j] -= q * c[m]
                    basis[j] = [u - q * w for u, w in zip(basis[j], basis[m])]
            nz = [j for j in nz if c[j]]
        if not nz:
            if rest:
                return False
            continue
        j = nz[0]
        if rest % c[j]:
            return False
        x0 = [xi + rest // c[j] * u for xi, u in zip(x0, basis[j])]
        del basis[j], c[j]
    return True


@dataclass(frozen=True)
class AffineEqs:
    vars: tuple[str, ...]
    rows: tuple[Row, ...] = ()
    empty: bool = False
    # the pivot column of each row, outside `==` and the hash
    _pivots: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self._pivots is None:
            object.__setattr__(self, "_pivots", tuple(next(i for i, x in enumerate(r) if x) for r in self.rows))

    @staticmethod
    def top(vars: Sequence[str]) -> "AffineEqs":
        return AffineEqs(tuple(vars))

    @staticmethod
    def bottom(vars: Sequence[str]) -> "AffineEqs":
        return AffineEqs(tuple(vars), (), True)

    def _canon(self, raw: list[Sequence[int]]) -> "AffineEqs":
        n = len(self.vars)
        rows, cols = _rref(raw, n)
        # a row past the pivot rows is a 0 = b row
        if len(rows) > len(cols) or not _integral(rows, cols, n):
            return AffineEqs.bottom(self.vars)
        return AffineEqs(self.vars, tuple(map(tuple, rows)), False, tuple(cols))

    # -- constraints

    def _row_of(self, lin: Lin) -> list[int]:
        """Row for lin = 0."""
        row = [0] * len(self.vars) + [-lin.const]
        for v, c in lin.coeffs:
            if v not in self.vars:
                raise ValueError(f"unknown variable {v}")
            row[self.vars.index(v)] = c
        return row

    def add_eq(self, lin: Lin) -> "AffineEqs":
        """Meet with lin = 0; an implied row leaves the element as it is."""
        if self.empty:
            return self
        row = self._row_of(lin)
        if self.implies_row(row):
            return self
        return self._canon([*self.rows, row])

    def meet(self, other: "AffineEqs") -> "AffineEqs":
        if self.empty:
            return self
        if other.empty:
            return other
        return self._canon([*self.rows, *other.rows])

    # -- transfer

    def forget(self, v: str) -> "AffineEqs":
        if self.empty or v not in self.vars:
            return self
        c = self.vars.index(v)
        pivot = next((r for r in self.rows if r[c]), None)
        if pivot is None:
            return self
        return self._canon(
            [_eliminate(r, pivot, c) if r[c] else r for r in self.rows if r is not pivot]
        )

    def assign(self, v: str, lin: Lin) -> "AffineEqs":
        """Exact affine assignment v := lin. When no row mentions v,
        v := v + k leaves the element as it is."""
        if self.empty:
            return self
        c = self.vars.index(v)
        if lin.coeffs == ((v, 1),) and not any(r[c] for r in self.rows):
            return self
        # route the old value of v through a temporary extra column
        rows = [[*r, r[c]] for r in self.rows]
        for r in rows:
            r[c] = 0  # rename v -> tmp
        new = [*self._row_of(lin), 0]
        new[-1], new[c] = new[c], -1  # lin - v_new = 0, v in lin meaning the old value
        rows.append(new)
        # eliminate the temporary column
        pivot = next((r for r in rows if r[-1]), None)
        if pivot is not None:
            rows = [_eliminate(r, pivot, -1) if r[-1] else r for r in rows if r is not pivot]
        return self._canon([r[:-1] for r in rows])

    # -- lattice

    def is_empty(self) -> bool:
        return self.empty

    def implies_row(self, row: Sequence[int]) -> bool:
        for r, c in zip(self.rows, self._pivots):
            if row[c]:
                row = _eliminate(row, r, c)
        return not any(row)

    def leq(self, other: "AffineEqs") -> bool:
        if self.empty:
            return True
        if other.empty:
            return False
        return all(self.implies_row(r) for r in other.rows)

    def join(self, other: "AffineEqs") -> "AffineEqs":
        """The affine hull. When the canonical rows of one side are
        among those of the other, every point of the other satisfies
        them, so the first side contains the other and is the hull; a
        side with no rows is top. Only other joins build the block."""
        if self.empty:
            return other
        if other.empty or other == self or not self.rows:
            return self
        if not other.rows:
            return other
        few, many = (self, other) if len(self.rows) < len(other.rows) else (other, self)
        if set(many.rows).issuperset(few.rows):
            return few
        w = len(self.vars) + 1
        block = [[*r, *r] for r in self.rows] + [[*r, *[0] * w] for r in other.rows]
        inter = [row[w:] for row in _rref(block, 2 * w)[0] if not any(row[:w])]
        return self._canon(inter)

    def widen(self, other: "AffineEqs") -> "AffineEqs":
        # rank strictly drops on unstable joins, chains are finite
        return self.join(other)

    # -- queries

    def equalities(self) -> Iterator[tuple[dict[str, int], int]]:
        """Rows as (coeffs, b) meaning sum = b."""
        for r in self.rows:
            coeffs = {v: c for v, c in zip(self.vars, r) if c != 0}
            yield coeffs, r[-1]

    def to_formula(self) -> Formula:
        if self.empty:
            return FALSE
        parts = []
        for coeffs, b in self.equalities():
            parts.append(eq0(Lin.make(coeffs) - Lin.of(b)))
        return land(*parts) if parts else TRUE
