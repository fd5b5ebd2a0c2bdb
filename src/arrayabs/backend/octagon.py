"""Octagon domain over integer variables, packed.

Constraints of the form ±v ±w <= c and ±v <= c, over the signed
variables +v, -v. The dense form is a coherent difference-bound matrix
m over 2n nodes: node 2i is +v_i, node 2i+1 is -v_i, and m[a][b] bounds
(signed a) - (signed b), with None standing for +infinity. A single
unary bound v <= c appears as the even-odd entry +v - (-v) <= 2c.

Canonical form is the tight integer closure, reached in one pass
(Bagnara, Hill and Zaffanella, VMCAI 2008): shortest paths, then the
strengthening step m[a][b] <= floor(m[a][a^1]/2) + floor(m[b^1][b]/2),
which at b = a^1 also floors each unary bound to an even value.
Emptiness shows up as a negative diagonal. Tight closure is exact on
integer octagons: every finite entry is attained by an integer point,
so two closed matrices of one point set are equal.

Packs. An element does not store the dense matrix. It partitions its
variables into packs (Singh, Puschel and Vechev, "Making numerical
program analysis fast", PLDI 2015) and stores one small matrix per
pack, over that pack's variables in ascending order. The pack
invariant: every dense entry between two packs is the sum of the two
halves,

    m[a][b] = floor(m[a][a^1]/2) + floor(m[b^1][b]/2),

each half read from its own pack. For a closed element this is exactly
what the dense tight closure holds there. No constraint links two
packs, so no shortest path crosses between them and the entry is
+infinity after the shortest-path step; strengthening then puts the sum
of the halves on it, and nothing lowers it further, because the
integer points are the product of the packs' point sets and the largest
value of (signed a) - (signed b) over a product is the sum of the two
largest values. `m` materializes the dense view, and `constraints()`
and `to_formula()` read it, so every output is that of the dense
domain. The partition comes from the constraints alone: it is never
configured.

How the operations keep the invariant:
- `add` merges the packs of its one or two variables (the entries
  between them becoming stored ones) and closes incrementally inside
  the merged pack only, in O(k^2) for a pack of k variables (Chawdhary,
  Robbins and King, FMSD 2019). Entries towards other packs follow
  from the moved unary bounds by themselves.
- `forget` takes the variable out of its pack into a pack of its own;
  `assign`, `_shift`, `bounds` and `equalities` touch only the packs
  involved.
- `join` and `widen` work entrywise, pack by pack; a pack both sides
  share is its own result. Every other result pack starts as a union
  of the packs of both sides that overlap. Between two unions both
  sides hold half-sums, and the dense result there can differ from the
  sum of the result's halves only when a unary bound moves in each of
  them. For `join`, the entrywise max of two half-sums, it differs
  exactly when the bounds of one union grow while those of the other
  shrink: {x = 0, y = 1} join {x = 1, y = 0} has x + y <= 1, where the
  halves give 2. For `widen` it differs when a kept entry has a dropped
  half: a bound of one union grows by some g > 0 and one of the other
  shrinks by at least g. So the unions in which some finite bound moves
  are computed as one, and every union that merged packs is split again
  into the groups of variables that an entry not equal to its half-sum
  links. A union whose bounds stay put keeps its own pack.
- `leq` compares each pack of the right side with the left side's dense
  view over its variables; entries between packs of the right side
  follow from the unary bounds, which that comparison covers.

Widening results are deliberately left unclosed so the ascending
iteration terminates: the left side of a widening is used as stored.
Their entries between packs are the half-sums of their stored unary
bounds, which the constraints inside the packs imply, so closing each
pack on its own is their full closure. An unclosed element caches that
closure the first time it is asked for, and `add` meets the closed form
incrementally, so a widened loop head is closed once.

Rows are copy-on-write. A pack matrix is a tuple of row tuples, and an
operation builds a new tuple only for a row in which some entry moves.
Elements of one analysis share every pack that an operation leaves
alone, and rows inside the packs they rework, so `join`, `widen`, `leq`
and `==` skip those at the cost of one identity test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import le
from typing import Iterable, Iterator, Sequence

from ..lia import FALSE, Formula, Lin, TRUE, ge0, land

# +infinity inside a stored matrix. A float, so that sums, min, max and
# comparisons handle it natively: every finite entry stays an int, and
# only a half needs a guard (inf // 2 is nan). The dense view `m` shows
# it as None.
INF = math.inf
Row = tuple[int | float, ...]  # a stored row, shared between elements
FREE = ((0, INF), (INF, 0))  # matrix of a variable with no constraint


def _octagonal(coeffs: dict[str, int]) -> bool:
    return 1 <= len(coeffs) <= 2 and all(abs(c) == 1 for c in coeffs.values())


def _half(x: int | float) -> int | float:
    return x // 2 if x != INF else INF


class _Pack:
    """The matrix over a few variables: `vars` are indices into the
    element's variables, ascending, and node 2p is +vars[p], 2p+1 is
    -vars[p]. `closed` marks a tightly closed matrix; `eqs` caches the
    equalities a closed one holds."""

    __slots__ = ("vars", "m", "closed", "eqs")

    def __init__(self, vars: tuple[int, ...], m: tuple[Row, ...], closed: bool):
        self.vars, self.m, self.closed, self.eqs = vars, m, closed, None


# -- closure of one matrix; None stands for an empty one


def _closure(m: Sequence[Row]) -> tuple[Row, ...] | None:
    """Tight integer closure by shortest paths, then `_tighten`."""
    n = len(m)
    d = [list(r) for r in m]
    for k in range(n):
        fin_k = [(j, x) for j, x in enumerate(d[k]) if x != INF]
        for i in range(n):
            row_i = d[i]
            dik = row_i[k]
            if dik == INF:
                continue
            for j, x in fin_k:
                x += dik
                if x < row_i[j]:
                    row_i[j] = x
    for i in range(n):
        if d[i][i] < 0:
            return None
        d[i][i] = 0
    return _tighten(d, range(n))


def _close_with(m: Sequence[Row], a: int, b: int, k: int) -> tuple[Row, ...] | None:
    """Tight closure of the closed matrix m plus the edge a -> b of
    weight k and its mirror b^1 -> a^1, in O(n^2) (Chawdhary, Robbins
    and King, FMSD 2019). A shortest path uses each new edge at most
    once, so from node i it is enough to know the cheapest ways to
    reach b and a^1 through new edges; every sum reads the old matrix.
    A row with no finite entry at a or at b^1 reaches neither new
    edge, and a row that the new paths do not shorten keeps its
    entries: both stay the same row object. `_tighten` then needs
    only the nodes whose unary bound moved."""
    row_b, row_na = m[b], m[a ^ 1]
    b_na = row_b[b ^ 1] + k  # b -> b^1 -> a^1
    na_b = row_na[a] + k  # a^1 -> a -> b
    fin_b = [(j, x) for j, x in enumerate(row_b) if x != INF]
    fin_na = [(j, x) for j, x in enumerate(row_na) if x != INF]
    d: list[Row | list[int | float]] = []
    moved = []
    for i, row in enumerate(m):
        via_a = row[a] + k  # i -> a -> b
        via_nb = row[b ^ 1] + k  # i -> b^1 -> a^1
        if via_a == INF and via_nb == INF:
            d.append(row)
            continue
        new = list(row)
        changed = False
        for t, far in (
            (min(via_a, via_nb + na_b), fin_b),
            (min(via_nb, via_a + b_na), fin_na),
        ):
            if t == INF:
                continue
            for j, x in far:
                x += t
                if x < new[j]:
                    new[j] = x
                    changed = True
        if not changed:
            d.append(row)
            continue
        if new[i] < 0:  # a negative cycle through the new edge
            return None
        d.append(new)
        if new[i ^ 1] != row[i ^ 1]:
            moved.append(i)
    return _tighten(d, moved)


def _tighten(d: list[Row | list[int | float]], moved: Sequence[int]) -> tuple[Row, ...] | None:
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
    `moved`. `_closure` passes every node."""
    n = len(d)
    half = [_half(d[j ^ 1][j]) for j in range(n)]
    every = [(j, h) for j, h in enumerate(half) if h != INF]
    cols = [(u ^ 1, half[u ^ 1]) for u in moved if half[u ^ 1] != INF]
    full = set(moved)
    for i in range(n):
        hi = half[i ^ 1]
        if hi == INF:
            continue
        row = d[i]
        for j, hj in every if i in full else cols:
            s = hi + hj
            if s < row[j]:
                if isinstance(row, tuple):
                    row = d[i] = list(row)
                row[j] = s
    if any(d[i][i] < 0 for i in range(n)):
        return None
    return tuple(map(tuple, d))  # tuple() hands a shared row on as is


def _components(n: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The connected groups of 0..n-1 under links, each ascending."""
    owner = list(range(n))

    def root(x: int) -> int:
        while owner[x] != x:
            x = owner[x]
        return x

    for x, y in links:
        x, y = root(x), root(y)
        owner[max(x, y)] = min(x, y)
    groups: dict[int, list[int]] = {}
    for u in range(n):
        groups.setdefault(root(u), []).append(u)
    return list(groups.values())


def _split(members: tuple[int, ...], m: tuple[Row, ...], closed: bool) -> list[_Pack]:
    """The matrix m over members as packs: two variables share a pack
    when some entry between them is not the sum of the halves, or
    through a chain of such pairs. A pack of a closed matrix is closed,
    being its projection. Coherence makes the entries (2u+s, 2w+t),
    u < w, enough."""
    n = len(m)
    half = [_half(m[a][a ^ 1]) for a in range(n)]
    col = [half[b ^ 1] for b in range(n)]
    groups = _components(len(members), (
        (a // 2, b // 2)
        for a in range(n - 2)
        for b in range(a + 2 - a % 2, n)
        if m[a][b] != half[a] + col[b]
    ))
    if len(groups) == 1:
        return [_Pack(members, m, closed)]
    out = []
    for us in groups:
        nodes = [a for u in us for a in (2 * u, 2 * u + 1)]
        rows = tuple(tuple([m[a][b] for b in nodes]) for a in nodes)
        out.append(_Pack(tuple(members[u] for u in us), rows, closed))
    return out


# -- entrywise operations on the dense views of one union of packs


def _join_rows(ra: Sequence[Row], rb: Sequence[Row]) -> tuple[Row, ...]:
    # entrywise max of closed is closed, diagonal 0 included
    return tuple([
        x if x is y or x == y else tuple([s if s >= t else t for s, t in zip(x, y)])
        for x, y in zip(ra, rb)
    ])


def _widen_rows(ra: Sequence[Row], rb: Sequence[Row]) -> tuple[Row, ...]:
    """Keep the entries of ra that rb does not exceed, drop the rest."""
    rows = []
    for i, (x, y) in enumerate(zip(ra, rb)):
        if x is y or x == y:
            rows.append(x)
            continue
        r = [s if t <= s else INF for s, t in zip(x, y)]
        r[i] = 0
        rows.append(tuple(r))
    return tuple(rows)


@dataclass(frozen=True, eq=False)
class Octagon:
    vars: tuple[str, ...]
    packs: tuple[_Pack, ...] = ()  # packs[i] is the pack that holds vars[i]
    empty: bool = False
    closed: bool = False
    # the closed form of an unclosed element, and dense views over
    # unions of packs, each computed once: a loop joins its entry state
    # with every round
    _memo: "dict | None" = field(default=None, init=False, repr=False)

    # -- construction

    @staticmethod
    def top(vars: Sequence[str]) -> "Octagon":
        vs = tuple(vars)
        return Octagon(vs, tuple(_Pack((i,), FREE, True) for i in range(len(vs))), False, True)

    @staticmethod
    def bottom(vars: Sequence[str]) -> "Octagon":
        return Octagon(tuple(vars), (), True, True)

    def _with(self, new: Sequence[_Pack], closed: bool = True) -> "Octagon":
        """Element with these packs in place of the ones their variables
        were in; every other pack is handed on as is."""
        packs = list(self.packs)
        for p in new:
            for i in p.vars:
                packs[i] = p
        return Octagon(self.vars, tuple(packs), False, closed)

    def _distinct(self) -> list[_Pack]:
        return [p for i, p in enumerate(self.packs) if p.vars[0] == i]

    def _where(self, v: str) -> tuple[int, _Pack, int]:
        """Index of v, its pack, and the node of +v in that pack."""
        i = self.vars.index(v)
        p = self.packs[i]
        return i, p, 2 * p.vars.index(i)

    def _view(self, members: tuple[int, ...]) -> tuple[Row, ...]:
        """The dense matrix over the variables `members` (ascending):
        stored entries inside a pack, half-sums between packs. A pack
        that holds exactly `members` hands on its own rows."""
        if not members:
            return ()
        first = self.packs[members[0]]
        if first.vars == members:
            return first.m
        memo = self._memo_dict()
        if members not in memo:
            memo[members] = self._materialize(members)
        return memo[members]

    def _materialize(self, members: tuple[int, ...]) -> tuple[Row, ...]:
        # the view's nodes in runs that sit next to each other in one
        # pack, so that a row is a few slices of its own pack's row and
        # of half-sums towards the other packs
        runs: list[list] = []  # [pack, first node in it, end node in it, first node of the view]
        nodes = []  # (pack, node in it) per node of the view
        for i in members:
            p = self.packs[i]
            q = 2 * p.vars.index(i)
            if runs and runs[-1][0] is p and runs[-1][2] == q:
                runs[-1][2] = q + 2
            else:
                runs.append([p, q, q + 2, len(nodes)])
            nodes += ((p, q), (p, q + 1))
        col = [_half(p.m[q ^ 1][q]) for p, q in nodes]  # half of m[b^1][b]
        rows = []
        for p, q in nodes:
            ha, own = _half(p.m[q][q ^ 1]), p.m[q]
            row: list[int | float] = []
            for r, lo, hi, at in runs:
                if r is p:
                    row += own[lo:hi]
                elif ha == INF:
                    row += (INF,) * (hi - lo)
                else:
                    row += [ha + h for h in col[at:at + hi - lo]]
            rows.append(tuple(row))
        return tuple(rows)

    @property
    def m(self) -> tuple[tuple[int | None, ...], ...]:
        """The dense matrix, materialized, None standing for +infinity
        (empty for bottom)."""
        if self.empty:
            return ()
        view = self._view(tuple(range(len(self.vars))))
        return tuple(tuple(None if x == INF else x for x in r) for r in view)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Octagon):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.empty == other.empty
            and (self.packs == other.packs or self.m == other.m)
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.empty, self.m))

    # -- canonical form

    def close(self) -> "Octagon":
        """Tight integer closure, pack by pack; detects emptiness. An
        unclosed element keeps its closure for the next call."""
        if self.empty or self.closed:
            return self
        memo = self._memo_dict()
        if "closed" not in memo:
            new = []
            for p in self._distinct():
                if p.closed:
                    continue
                rows = _closure(p.m)
                if rows is None:
                    out = Octagon.bottom(self.vars)
                    break
                new.append(_Pack(p.vars, rows, True))
            else:
                out = self._with(new)
            memo["closed"] = out
        return memo["closed"]

    def _memo_dict(self) -> dict:
        if self._memo is None:
            object.__setattr__(self, "_memo", {})
        return self._memo

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
        for i, q in enumerate(b.packs):
            if q.vars[0] != i or a.packs[i] is q:
                continue
            for ra, rb in zip(a._view(q.vars), q.m):
                if not (ra is rb or ra == rb or all(map(le, ra, rb))):
                    return False
        return True

    def join(self, other: "Octagon") -> "Octagon":
        a = self.close()
        b = other.close()
        if a.empty:
            return b
        if b.empty:
            return a
        return a._entrywise(b, _join_rows, closed=True)

    def widen(self, other: "Octagon") -> "Octagon":
        """Keep stable bounds, drop the rest. Left side is used as
        stored (possibly unclosed); the result stays unclosed."""
        if self.empty:
            return other.close()
        b = other.close()
        if b.empty:
            return self
        return self._entrywise(b, _widen_rows, closed=False)

    def _entrywise(self, other: "Octagon", rows, closed: bool) -> "Octagon":
        """rows(view of self, view of other) on every union of packs
        that the two sides do not share: the connected groups of
        overlapping packs. The unions in which some finite half moves
        form one union, which `_split` cuts where the result allows
        (module docstring). A pack both sides share is its own
        result."""
        pa, pb = self.packs, other.packs
        unions: list[Sequence[int]] = []
        links = []  # each variable to the first of its pack on either side
        for i, p in enumerate(pa):
            q = pb[i]
            if p is q:
                continue
            if p.vars != q.vars:
                links += ((i, p.vars[0]), (i, q.vars[0]))
            elif p.vars[0] == i:  # one pack over the same variables on both sides
                unions.append(p.vars)
        if links:
            unions += [g for g in _components(len(pa), links) if len(g) > 1]
        if not unions:
            return self
        # the largest union is read only when some other one moves
        unions.sort(key=len)
        moving = [g for g in unions[:-1] if self._moves(other, g)]
        if moving and self._moves(other, unions[-1]):
            moving.append(unions[-1])
        if len(moving) > 1:
            unions = [g for g in unions if g not in moving] + [[i for g in moving for i in g]]
        new = []
        for g in unions:
            members = tuple(sorted(g))
            m = rows(self._view(members), other._view(members))
            # a pack over the same variables on both sides stays whole
            new += [_Pack(members, m, closed)] if isinstance(g, tuple) else _split(members, m, closed)
        return self._with(new, closed)

    def _moves(self, other: "Octagon", group: Sequence[int]) -> bool:
        """Whether a half of a variable in group, finite on both sides,
        differs between self and other."""
        for i in group:
            p, r = self.packs[i], other.packs[i]
            q, s = 2 * p.vars.index(i), 2 * r.vars.index(i)
            for u in (0, 1):
                x, y = p.m[q + u][q + 1 - u], r.m[s + u][s + 1 - u]
                if x != y and x != INF and y != INF and x // 2 != y // 2:
                    return True
        return False

    # -- constraints

    def add(self, coeffs: dict[str, int], k: int) -> "Octagon":
        """Meet with sum(coeffs)*vars <= k: one or two variables, unit
        coefficients. The result is tightly closed; an unclosed element
        meets its closed form."""
        if not _octagonal(coeffs):
            raise ValueError(f"not an octagon constraint: {coeffs}")
        return self._add(coeffs, k)

    def _add(self, coeffs: dict[str, int], k: int) -> "Octagon":
        """`add` for coefficients known to be octagonal."""
        if self.empty:
            return self
        if not self.closed:
            return self.close()._add(coeffs, k)
        (v, s), *rest = coeffs.items()
        i, p, a = self._where(v)
        a += s < 0
        members, m = p.vars, p.m
        if not rest:  # s*v <= k  <=>  (s*v) - (-s*v) <= 2k
            b, k = a ^ 1, 2 * k
        else:  # s*v + t*w <= k  <=>  (s*v) - (-t*w) <= k
            (w, t), = rest
            j, q, b = self._where(w)
            b = (b + (t < 0)) ^ 1
            if q is not p:
                # between two packs the entry is the sum of the halves
                if _half(m[a][a ^ 1]) + _half(q.m[b ^ 1][b]) <= k:
                    return self
                members = tuple(sorted(p.vars + q.vars))
                m = self._view(members)
                a, b = 2 * members.index(i) + (s < 0), (2 * members.index(j) + (t < 0)) ^ 1
        if m[a][b] <= k:
            return self  # implied: keeps the element as it is
        if len(m) == 2:  # a variable alone: a unary bound, nothing to close
            if k + m[b][a] < 0:
                return Octagon.bottom(self.vars)
            rows = ((0, k), m[1]) if a == 0 else (m[0], (k, 0))
            return self._with([_Pack(members, rows, True)])
        rows = _close_with(m, a, b, k)
        if rows is None:
            return Octagon.bottom(self.vars)
        return self._with([_Pack(members, rows, True)])

    def assume(self, lin: Lin) -> "Octagon":
        """Meet with lin >= 0 when octagonal, identity otherwise."""
        if self.empty:
            return self
        coeffs = dict(lin.coeffs)
        if _octagonal(coeffs):
            # lin >= 0  <=>  -lin <= const
            return self._add({v: -c for v, c in coeffs.items()}, lin.const)
        return self

    # -- transfer helpers

    def forget(self, v: str) -> "Octagon":
        if self.empty:
            return self
        a = self.close()
        if a.empty:
            return a
        i, p, q = a._where(v)
        alone = _Pack((i,), FREE, True)
        if len(p.vars) == 1:
            return a if p.m == FREE else a._with([alone])
        # dropping a variable from a closed pack leaves it closed
        rest = p.m[:q] + p.m[q + 2:]
        rows = tuple(r[:q] + r[q + 2:] for r in rest)
        return a._with([_Pack(p.vars[: q // 2] + p.vars[q // 2 + 1:], rows, True), alone])

    def assign(self, v: str, lin: Lin) -> "Octagon":
        if self.empty:
            return self
        coeffs = dict(lin.coeffs)
        k = lin.const
        if not coeffs:
            out = self.forget(v)
            return out._add({v: 1}, k)._add({v: -1}, -k)
        if len(coeffs) == 1:
            (w, c), = coeffs.items()
            if w == v and c == 1:
                return self._shift(v, k)
            if c in (1, -1) and w != v:
                out = self.forget(v)
                # v - c*w <= k and c*w - v <= -k
                out = out._add({v: 1, w: -c}, k)
                return out._add({v: -1, w: c}, -k)
        # general affine right side: fall back to interval evaluation
        lo, hi = self.eval_range(lin)
        out = self.forget(v)
        if hi is not None:
            out = out._add({v: 1}, hi)
        if lo is not None:
            out = out._add({v: -1}, -lo)
        return out

    def _shift(self, v: str, k: int) -> "Octagon":
        a = self.close()
        if a.empty:
            return a
        _, pk, p = a._where(v)
        q = p ^ 1
        rows: list[Row] = []
        for i, row in enumerate(pk.m):
            if i in (p, q):  # +v - w moves by k, -v - w by -k
                s = k if i == p else -k
                r = [x + s for x in row]
                r[i], r[i ^ 1] = 0, row[i ^ 1] + 2 * s
                rows.append(tuple(r))
            elif row[p] == INF and row[q] == INF:
                rows.append(row)
            else:  # w - v moves by -k, w + v by k
                r = list(row)
                r[p], r[q] = row[p] - k, row[q] + k
                rows.append(tuple(r))
        return a._with([_Pack(pk.vars, tuple(rows), True)])

    # -- queries

    def bounds(self, v: str) -> tuple[int | None, int | None]:
        a = self.close()
        if a.empty:
            return (0, -1)
        _, p, q = a._where(v)
        up = p.m[q][q ^ 1]
        lo = p.m[q ^ 1][q]
        return (None if lo == INF else -(lo // 2), None if up == INF else up // 2)

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
        """Yield (coeffs, k) meaning sum(coeffs) <= k, from the dense
        view of the closed form, half-sums between packs included."""
        a = self.close()
        if a.empty:
            return
        m = a.m
        signed = [(v, s) for v in a.vars for s in (1, -1)]  # index i is node i
        for i, (v, s) in enumerate(signed):
            for j, (w, t) in enumerate(signed):
                c = m[i][j]
                if c is None or i == j or i > (j ^ 1):  # i > j^1: coherent mirror
                    continue
                if v == w:  # (s*v) - (-s*v) <= c
                    yield {v: s}, c // 2
                else:
                    yield {v: s, w: -t}, c

    def equalities(self, known: Sequence[_Pack] = ()) -> Iterator[tuple[dict[str, int], int]]:
        """Yield (coeffs, k) meaning sum(coeffs) == k, once per equality
        inside a pack of the closed form: +v - (signed w) bounded both
        ways by one value. An equality between two packs holds only
        when both variables are constants, so it follows from the two
        unary equalities and is left out. Each pack keeps its list.

        `known` is the `packs` of an element over the same variables
        whose equalities the caller has read: a pack it holds at the
        same place is skipped."""
        a = self.close()
        if a.empty:
            return
        for i, p in enumerate(a.packs):
            if p.vars[0] != i or known and known[i] is p:
                continue
            if p.eqs is None:
                p.eqs = list(a._pack_equalities(p))
            yield from p.eqs

    def _pack_equalities(self, p: _Pack) -> Iterator[tuple[dict[str, int], int]]:
        m = p.m
        for i in range(0, len(m), 2):
            v = self.vars[p.vars[i // 2]]
            row, mirror = m[i], m[i + 1]  # m[j][i] == m[i^1][j^1]: coherence
            for j in range(i + 1, len(m)):
                c = row[j]
                if c == INF or c + mirror[j ^ 1] != 0:
                    continue
                if j == i + 1:  # +v - (-v) == c
                    yield {v: 1}, c // 2
                else:  # j even: +v - (+w); j odd: +v - (-w)
                    yield {v: 1, self.vars[p.vars[j // 2]]: 1 if j % 2 else -1}, c

    def to_formula(self) -> Formula:
        if self.is_empty():
            return FALSE
        parts = []
        for coeffs, k in self.constraints():
            lin = Lin.of(k) - Lin.make(coeffs)
            parts.append(ge0(lin))
        return land(*parts) if parts else TRUE
