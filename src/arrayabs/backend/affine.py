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

Positions. Columns are positions in a `Vars` tuple, which the elements
of an analysis share with their octagons; `add_eq` takes a row, and
the product builds an element from its octagon's equalities only
where the octagon cannot hold a row (`product.py`). Names are resolved
only where a `Lin` comes in (`Vars.row_of`, `forget`, `assign`).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

from ..lia import FALSE, Formula, Lin, eq0, land

Row = tuple[int, ...]  # coefficients per variable, then the constant

# Rows being worked on are lists, stored rows tuples: short-lived tuples
# of many lengths would fill the interpreter's per-length tuple free
# lists and raise the peak memory of a run.


class Vars(tuple):
    """A variable tuple that carries its name -> position map and a
    memo, each built on first use. The elements of one analysis share
    one such tuple, so they share both, which go when the tuple does."""

    @staticmethod
    def of(vars: Sequence[str]) -> "Vars":
        return vars if isinstance(vars, Vars) else Vars(vars)

    @functools.cached_property
    def pos(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self)}

    @functools.cached_property
    def memo(self) -> dict:
        """Values built once per tuple: the product's bottom."""
        return {}

    def row_of(self, lin: Lin) -> list[int]:
        """The row of lin = 0: coefficients by position, then -const."""
        pos = self.pos
        row = [0] * len(self) + [-lin.const]
        for v, c in lin.coeffs:
            if v not in pos:
                raise ValueError(f"unknown variable {v}")
            row[pos[v]] = c
        return row


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
    vars: Vars
    rows: tuple[Row, ...] = ()
    empty: bool = False
    # the pivot column of each row, outside `==` and the hash
    _pivots: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self._pivots is None:  # built directly, not by an operation
            object.__setattr__(self, "vars", Vars.of(self.vars))
            object.__setattr__(self, "_pivots", tuple(next(i for i, x in enumerate(r) if x) for r in self.rows))

    @staticmethod
    def top(vars: Sequence[str]) -> "AffineEqs":
        return AffineEqs(Vars.of(vars))

    @staticmethod
    def bottom(vars: Sequence[str]) -> "AffineEqs":
        return AffineEqs(Vars.of(vars), (), True)

    def _canon(self, raw: list[Sequence[int]]) -> "AffineEqs":
        n = len(self.vars)
        rows, cols = _rref(raw, n)
        # a row past the pivot rows is a 0 = b row
        if len(rows) > len(cols) or not _integral(rows, cols, n):
            return AffineEqs.bottom(self.vars)
        return AffineEqs(self.vars, tuple(map(tuple, rows)), False, tuple(cols))

    # -- constraints

    def add_eq(self, row: Sequence[int]) -> "AffineEqs":
        """Meet with sum(row[i] * vars[i]) = row[-1], leaving the row as
        it is. The row is reduced once: an implied one hands back the
        element, else the other rows are cleared in its new pivot
        column, which gives the unique reduced form `_canon` computes,
        and only `_integral` is left to check."""
        if self.empty:
            return self
        row = self._reduced(row)
        n = len(self.vars)
        c = next((c for c, x in enumerate(row) if x), None)
        if c is None:
            return self
        if c == n:  # 0 = b
            return AffineEqs.bottom(self.vars)
        row = _primitive(row)
        # a row with a nonzero entry at c has its pivot left of c, where
        # the new row is zero, so the pivot stays put
        rows = [_eliminate(r, row, c) if r[c] else r for r in self.rows]
        at = bisect.bisect(self._pivots, c)
        rows.insert(at, row)
        cols = [*self._pivots[:at], c, *self._pivots[at:]]
        if not _integral(rows, cols, n):
            return AffineEqs.bottom(self.vars)
        return AffineEqs(self.vars, tuple(map(tuple, rows)), False, tuple(cols))

    def meet(self, other: "AffineEqs") -> "AffineEqs":
        if self.empty:
            return self
        if other.empty:
            return other
        return self._canon([*self.rows, *other.rows])

    # -- transfer

    def forget(self, v: str) -> "AffineEqs":
        c = self.vars.pos.get(v)
        if self.empty or c is None:
            return self
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
        c = self.vars.pos[v]
        if lin.coeffs == ((v, 1),) and not any(r[c] for r in self.rows):
            return self
        # route the old value of v through a temporary extra column
        rows = [[*r, r[c]] for r in self.rows]
        for r in rows:
            r[c] = 0  # rename v -> tmp
        new = [*self.vars.row_of(lin), 0]
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

    def _reduced(self, row: Sequence[int]) -> Sequence[int]:
        """row with every pivot column cleared: zero when implied."""
        for r, c in zip(self.rows, self._pivots):
            if row[c]:
                row = _eliminate(row, r, c)
        return row

    def leq(self, other: "AffineEqs") -> bool:
        if self.empty:
            return True
        if other.empty:
            return False
        return all(not any(self._reduced(r)) for r in other.rows)

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

    def to_formula(self) -> Formula:
        if self.empty:
            return FALSE
        return land(*(eq0(Lin.make(zip(self.vars, r), -r[-1])) for r in self.rows))
