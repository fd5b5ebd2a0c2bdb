"""Octagon domain over integer variables.

Constraints of the form ±v ±w <= c and ±v <= c, held in a coherent
difference-bound matrix over the signed variables +v, -v. Node 2i is
+v_i, node 2i+1 is -v_i; m[a][b] bounds (signed a) - (signed b), with
None standing for +infinity. A single unary bound v <= c appears as
the even-odd entry +v - (-v) <= 2c.

Canonical form is the tight integer closure, reached in one pass
(Bagnara, Hill and Zaffanella, VMCAI 2008): shortest paths, then the
strengthening step m[a][b] <= floor(m[a][a^1]/2) + floor(m[b^1][b]/2),
which at b = a^1 also floors each unary bound to an even value.
Emptiness shows up as a negative diagonal. `add` on a closed element
closes incrementally in O(n^2) (Chawdhary, Robbins and King, FMSD
2019), so the full O(n^3) pass runs only on unclosed elements. Those
come only from widening, whose results are deliberately left unclosed
so the ascending iteration terminates, from matrices built by hand, and
from `add` on either, which leaves the closure to the next close().
Joins and widenings work entrywise. Equalities are read straight off
the closed matrix.

Rows are copy-on-write. A matrix is a tuple of row tuples, and elements
derived from one another share every row that an operation leaves
unchanged: `add`, `forget`, `assign`, `join` and `widen` build a new
tuple only for a row in which some entry moves, and hand on the very
same row object otherwise. The incremental closure keeps a row as it is
when the row has no finite entry towards either new edge, and
strengthens only the pairs that a moved unary bound can lower (see
`_tighten`). So `ra is rb` holds for most row pairs of two elements of
one analysis, and `join`, `widen`, `leq` and `==` skip those pairs at
the cost of one identity test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..lia import FALSE, Formula, Lin, TRUE, ge0, land

INF = None  # +infinity marker inside the matrix
Row = tuple[int | None, ...]  # a stored row, shared between elements


def _octagonal(coeffs: dict[str, int]) -> bool:
    return 1 <= len(coeffs) <= 2 and all(abs(c) == 1 for c in coeffs.values())


def _add(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return INF
    return a + b


def _min(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _le(a: int | None, b: int | None) -> bool:
    """a <= b with None as +infinity."""
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


@dataclass(frozen=True)
class Octagon:
    vars: tuple[str, ...]
    m: tuple[Row, ...] = ()
    empty: bool = False
    closed: bool = field(default=False, compare=False)

    # -- construction

    @staticmethod
    def top(vars: Sequence[str]) -> "Octagon":
        vs = tuple(vars)
        n = 2 * len(vs)
        m = tuple(tuple(0 if i == j else INF for j in range(n)) for i in range(n))
        return Octagon(vs, m, False, True)

    @staticmethod
    def bottom(vars: Sequence[str]) -> "Octagon":
        return Octagon(tuple(vars), (), True, True)

    def _pos(self, v: str) -> int:
        return 2 * self.vars.index(v)

    def _node(self, v: str, sign: int) -> int:
        """Node of the signed variable sign*v: 2i for +v_i, 2i+1 for -v_i."""
        return self._pos(v) + (sign < 0)

    def _with(self, rows: list[Row | list[int | None]], closed: bool = False) -> "Octagon":
        """Element with these rows, list rows frozen. tuple() returns a
        tuple argument unchanged, so a shared row stays the same object."""
        return Octagon(self.vars, tuple(map(tuple, rows)), False, closed)

    # -- canonical form

    def close(self) -> "Octagon":
        """Tight integer closure; detects emptiness."""
        if self.empty or self.closed:
            return self
        n = len(self.m)
        d = [list(r) for r in self.m]
        for k in range(n):
            row_k = d[k]
            for i in range(n):
                dik = d[i][k]
                if dik is None:
                    continue
                row_i = d[i]
                for j in range(n):
                    dkj = row_k[j]
                    if dkj is None:
                        continue
                    s = dik + dkj
                    if row_i[j] is None or s < row_i[j]:
                        row_i[j] = s
        for i in range(n):
            if d[i][i] is not None and d[i][i] < 0:
                return Octagon.bottom(self.vars)
            d[i][i] = 0
        return self._tighten(d, range(n))

    def _close_with(self, a: int, b: int, k: int) -> "Octagon":
        """Tight closure of this closed element plus the edge a -> b of
        weight k and its mirror b^1 -> a^1, in O(n^2) (Chawdhary, Robbins
        and King, FMSD 2019). A shortest path uses each new edge at most
        once, so from node i it is enough to know the cheapest ways to
        reach b and a^1 through new edges; every sum reads the old matrix.
        A row with no finite entry at a or at b^1 reaches neither new
        edge, and a row that the new paths do not shorten keeps its
        entries: both stay the same row object. `_tighten` then needs
        only the nodes whose unary bound moved."""
        m = self.m
        row_b, row_na = m[b], m[a ^ 1]
        b_na = _add(row_b[b ^ 1], k)  # b -> b^1 -> a^1
        na_b = _add(row_na[a], k)  # a^1 -> a -> b
        fin_b = [(j, x) for j, x in enumerate(row_b) if x is not None]
        fin_na = [(j, x) for j, x in enumerate(row_na) if x is not None]
        d: list[Row | list[int | None]] = []
        moved = []
        for i, row in enumerate(m):
            if row[a] is None and row[b ^ 1] is None:
                d.append(row)
                continue
            via_a = _add(row[a], k)  # i -> a -> b
            via_nb = _add(row[b ^ 1], k)  # i -> b^1 -> a^1
            new = list(row)
            changed = False
            for t, far in (
                (_min(via_a, _add(via_nb, na_b)), fin_b),
                (_min(via_nb, _add(via_a, b_na)), fin_na),
            ):
                if t is None:
                    continue
                for j, x in far:
                    x += t
                    if new[j] is None or x < new[j]:
                        new[j] = x
                        changed = True
            if not changed:
                d.append(row)
                continue
            if new[i] < 0:  # a negative cycle through the new edge
                return Octagon.bottom(self.vars)
            d.append(new)
            if new[i ^ 1] != row[i ^ 1]:
                moved.append(i)
        return self._tighten(d, moved)

    def _tighten(self, d: list[Row | list[int | None]], moved: Sequence[int]) -> "Octagon":
        """Finish a shortest-path closed matrix d with a zero diagonal:
        strengthening with floored halves,
        d[i][j] <= floor(d[i][i^1]/2) + floor(d[j^1][j]/2), where j = i^1
        floors the unary bound to an even value, which is the integer
        tightening; then emptiness on the diagonal.

        Each row of d is either a list, changed in place, or a tuple
        shared with a tightly closed matrix, copied only when one of its
        entries drops. That matrix's unary bounds are those of d except
        at the nodes in `moved`; they are even, so a half
        floor(d[i][i^1]/2) moves exactly when its bound does. Visiting
        only the pairs (i, j) with a moved half is exact: for the other
        pairs the old matrix already held its entry below the same sum,
        since it was tightly closed, and d[i][j] is no larger than the
        old entry. So a row i in `moved` is strengthened in every column,
        every other row only in the columns u^1 of the nodes u in
        `moved`. close() passes every node."""
        n = len(d)
        half = [None if d[j ^ 1][j] is None else d[j ^ 1][j] // 2 for j in range(n)]
        every, cols, full = range(n), [u ^ 1 for u in moved], set(moved)
        for i in range(n):
            hi = half[i ^ 1]
            if hi is None:
                continue
            row = d[i]
            for j in every if i in full else cols:
                hj = half[j]
                if hj is None:
                    continue
                s = hi + hj
                if row[j] is None or s < row[j]:
                    if isinstance(row, tuple):
                        row = d[i] = list(row)
                    row[j] = s
        if any(d[i][i] < 0 for i in range(n)):
            return Octagon.bottom(self.vars)
        return self._with(d, closed=True)

    # -- lattice

    def is_empty(self) -> bool:
        return self.close().empty

    def leq(self, other: "Octagon") -> bool:
        a = self.close()
        b = other.close()
        if a.empty:
            return True
        if b.empty:
            return False
        return all(
            ra is rb or ra == rb or all(_le(x, y) for x, y in zip(ra, rb))
            for ra, rb in zip(a.m, b.m)
        )

    def join(self, other: "Octagon") -> "Octagon":
        a = self.close()
        b = other.close()
        if a.empty:
            return b
        if b.empty:
            return a
        rows = [
            ra if ra is rb or ra == rb
            else [INF if (x is None or y is None) else max(x, y) for x, y in zip(ra, rb)]
            for ra, rb in zip(a.m, b.m)
        ]
        return a._with(rows, closed=True)  # entrywise max of closed is closed, diagonal 0 included

    def widen(self, other: "Octagon") -> "Octagon":
        """Keep stable bounds, drop the rest. Left side is used as
        stored (possibly unclosed); the result stays unclosed."""
        if self.empty:
            return other.close()
        b = other.close()
        if b.empty:
            return self
        rows: list[Row | list[int | None]] = []
        for i, (ra, rb) in enumerate(zip(self.m, b.m)):
            if ra is rb or ra == rb:
                rows.append(ra)
                continue
            r = [x if _le(y, x) else INF for x, y in zip(ra, rb)]
            r[i] = 0
            rows.append(r)
        return self._with(rows, closed=False)

    # -- constraints

    def add(self, coeffs: dict[str, int], k: int) -> "Octagon":
        """Meet with sum(coeffs)*vars <= k: one or two variables, unit
        coefficients. A closed element gives its tight closure at once;
        an unclosed one only gets the entry, for the next close()."""
        if self.empty:
            return self
        if not _octagonal(coeffs):
            raise ValueError(f"not an octagon constraint: {coeffs}")
        nodes = [self._node(v, c) for v, c in coeffs.items()]
        if len(nodes) == 1:  # s*v <= k  <=>  (s*v) - (-s*v) <= 2k
            a, b, k = nodes[0], nodes[0] ^ 1, 2 * k
        else:  # s*v + t*w <= k  <=>  (s*v) - (-t*w) <= k
            a, b = nodes[0], nodes[1] ^ 1
        if _le(self.m[a][b], k):
            return self  # implied: keeps a closed form closed
        if self.closed:
            return self._close_with(a, b, k)
        rows: list[Row | list[int | None]] = list(self.m)
        for i, j in ((a, b), (b ^ 1, a ^ 1)):  # one entry when b == a^1
            r = list(rows[i])
            r[j] = k
            rows[i] = r
        return self._with(rows)

    def assume(self, lin: Lin) -> "Octagon":
        """Meet with lin >= 0 when octagonal, identity otherwise."""
        if self.empty:
            return self
        coeffs = dict(lin.coeffs)
        if _octagonal(coeffs):
            # lin >= 0  <=>  -lin <= const
            return self.add({v: -c for v, c in coeffs.items()}, lin.const)
        return self

    # -- transfer helpers

    def forget(self, v: str) -> "Octagon":
        if self.empty:
            return self
        a = self.close()
        if a.empty:
            return a
        p = a._pos(v)
        q = p ^ 1
        n = len(a.m)
        rows: list[Row | list[int | None]] = []
        for i, row in enumerate(a.m):
            if i in (p, q):
                rows.append([0 if j == i else INF for j in range(n)])
            elif row[p] is None and row[q] is None:
                rows.append(row)
            else:
                r = list(row)
                r[p] = r[q] = INF
                rows.append(r)
        return a._with(rows, closed=True)

    def assign(self, v: str, lin: Lin) -> "Octagon":
        if self.empty:
            return self
        coeffs = dict(lin.coeffs)
        k = lin.const
        if not coeffs:
            out = self.forget(v)
            return out.add({v: 1}, k).add({v: -1}, -k)
        if len(coeffs) == 1:
            (w, c), = coeffs.items()
            if w == v and c == 1:
                return self._shift(v, k)
            if c in (1, -1) and w != v:
                out = self.forget(v)
                # v - c*w <= k and c*w - v <= -k
                out = out.add({v: 1, w: -c}, k)
                return out.add({v: -1, w: c}, -k)
        # general affine right side: fall back to interval evaluation
        lo, hi = self.eval_range(lin)
        out = self.forget(v)
        if hi is not None:
            out = out.add({v: 1}, hi)
        if lo is not None:
            out = out.add({v: -1}, -lo)
        return out

    def _shift(self, v: str, k: int) -> "Octagon":
        a = self.close()
        if a.empty:
            return a
        p = a._pos(v)
        q = p ^ 1
        rows: list[Row | list[int | None]] = []
        for i, row in enumerate(a.m):
            if i in (p, q):  # +v - w moves by k, -v - w by -k
                s = k if i == p else -k
                r = [x if j == i or x is None else x + s for j, x in enumerate(row)]
                r[i ^ 1] = _add(row[i ^ 1], 2 * s)
                rows.append(r)
            elif row[p] is None and row[q] is None:
                rows.append(row)
            else:  # w - v moves by -k, w + v by k
                r = list(row)
                r[p], r[q] = _add(row[p], -k), _add(row[q], k)
                rows.append(r)
        return a._with(rows, closed=True)

    # -- queries

    def bounds(self, v: str) -> tuple[int | None, int | None]:
        a = self.close()
        if a.empty:
            return (0, -1)
        p = a._pos(v)
        up = a.m[p][p ^ 1]
        lo = a.m[p ^ 1][p]
        return (None if lo is None else -(lo // 2), None if up is None else up // 2)

    def eval_range(self, lin: Lin) -> tuple[int | None, int | None]:
        a = self.close()
        lo: int | None = lin.const
        hi: int | None = lin.const
        for v, c in lin.coeffs:
            vlo, vhi = a.bounds(v)
            tlo, thi = (vlo, vhi) if c > 0 else (vhi, vlo)
            lo = None if (lo is None or tlo is None) else lo + c * tlo
            hi = None if (hi is None or thi is None) else hi + c * thi
        return lo, hi

    def constraints(self) -> Iterator[tuple[dict[str, int], int]]:
        """Yield (coeffs, k) meaning sum(coeffs) <= k, from the closed form."""
        a = self.close()
        if a.empty:
            return
        signed = [(v, s) for v in a.vars for s in (1, -1)]  # index i is _node(v, s)
        for i, (v, s) in enumerate(signed):
            for j, (w, t) in enumerate(signed):
                c = a.m[i][j]
                if c is None or i == j or i > (j ^ 1):  # i > j^1: coherent mirror
                    continue
                if v == w:  # (s*v) - (-s*v) <= c
                    yield {v: s}, c // 2
                else:
                    yield {v: s, w: -t}, c

    def equalities(self) -> Iterator[tuple[dict[str, int], int]]:
        """Yield (coeffs, k) meaning sum(coeffs) == k, once per equality of
        the closed form: +v - (signed w) bounded both ways by one value."""
        a = self.close()
        if a.empty:
            return
        m = a.m
        for i in range(0, len(m), 2):
            v = a.vars[i // 2]
            for j in range(i + 1, len(m)):
                c, back = m[i][j], m[j][i]
                if c is None or back is None or c + back != 0:
                    continue
                if j == i + 1:  # +v - (-v) == c
                    yield {v: 1}, c // 2
                else:  # j even: +v - (+w); j odd: +v - (-w)
                    yield {v: 1, a.vars[j // 2]: 1 if j % 2 else -1}, c

    def to_formula(self) -> Formula:
        if self.is_empty():
            return FALSE
        parts = []
        for coeffs, k in self.constraints():
            lin = Lin.of(k) - Lin.make(coeffs)
            parts.append(ge0(lin))
        return land(*parts) if parts else TRUE
