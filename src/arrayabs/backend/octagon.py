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
Tight closure is exact on integer octagons: every finite entry is
attained by an integer point, so two closed matrices of one point set
are equal.

Emptiness. `empty` is exact, and only two things set it: `bottom`, and
`add` when it refutes a constraint before closing, k + m[b][a] < 0. No
closure tests for emptiness, for two reasons. When `add` does not
refute, the new constraint holds at an integer point of the tightly
closed matrix: one that attains m[b][a], or, where that entry is
+infinity, one at which (signed b) - (signed a) is at least -k. So the
meet keeps a point. And every other operation maps a non-empty element
to a non-empty one: `join`, `forget`, `assign` and `_shift` keep or
move points, and a widening keeps only constraints of a non-empty
element.

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
largest values. `m` materializes the dense view. `==` compares closed
forms by inclusion both ways, and the hash reads their unary bounds
only. The partition comes from the constraints alone: it is never
configured.

`to_formula()` writes a subset of the closed form with the same integer
points. Between packs it writes nothing: those entries are half-sums,
which the unary bounds imply. Inside a pack it writes the entries
`_irredundant` keeps, which imply every other entry of the pack
through 2-paths and half-sums of kept entries, so their tight closure
is the pack's matrix. A closed 6-variable pack holds up to 72 entries;
an analysis's exit packs keep about a third of them.

How the operations keep the invariant:
- `add` merges the packs of its one or two variables (the entries
  between them becoming stored ones) and closes incrementally inside
  the merged pack only, in O(k^2) for a pack of k variables (Chawdhary,
  Robbins and King, FMSD 2019). Entries towards other packs follow
  from the moved unary bounds by themselves.
- `forget` takes the variable out of its pack into a pack of its own;
  `assign`, `_negate`, `_shift`, `bounds`, `entails` and `equalities`
  touch only the packs involved.
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

Positions. The elements of an analysis share one `affine.Vars` tuple
and work by position in it: `add` takes (position, sign) terms, and
`equalities` yields the integer rows `AffineEqs.add_eq` takes. Names
are resolved only where a name or a `Lin` comes in (`lower`,
`assign`, `forget`, `bounds`), through the tuple's one name ->
position map, and where a `Formula` goes out. `lower` turns an
inequality into `add`'s terms, and decides whether it is octagonal:
the guards of `product.py` and the target check of `lift.py` both go
through it.

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
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from ..lia import FALSE, Formula, Lin, TRUE, ge0, land
from .affine import Vars

# +infinity inside a stored matrix. A float, so that sums, min, max and
# comparisons handle it natively: every finite entry stays an int, and
# only a half needs a guard (inf // 2 is nan). The dense view `m` shows
# it as None.
INF = math.inf
Row = tuple[int | float, ...]  # a stored row, shared between elements
FREE = ((0, INF), (INF, 0))  # matrix of a variable with no constraint


def octagonal(cs: Collection[int]) -> bool:
    """Whether a sum with the nonzero coefficients cs, bounded, is an
    octagon constraint: one or two variables, unit coefficients."""
    return 1 <= len(cs) <= 2 and all(c in (1, -1) for c in cs)


def lower(lin: Lin, pos: Mapping[str, int]) -> tuple[list[tuple[int, int]], int] | None:
    """lin >= 0 as the (position, sign) terms and the bound k of
    `Octagon.add`, -lin <= const, with positions read from pos; None
    when lin >= 0 is not an octagon constraint."""
    if not octagonal([c for _, c in lin.coeffs]):
        return None
    return [(pos[v], -c) for v, c in lin.coeffs], lin.const


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


# -- closure of one matrix that has an integer point


def _closure(m: Sequence[Row]) -> tuple[Row, ...]:
    """Tight integer closure by shortest paths, then `_tighten`. With
    no negative cycle, the zero diagonal stays as it is."""
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
    return _tighten(d, range(n))


def _close_with(m: Sequence[Row], a: int, b: int, k: int) -> tuple[Row, ...]:
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
        d.append(new)
        if new[i ^ 1] != row[i ^ 1]:
            moved.append(i)
    return _tighten(d, moved)


def _tighten(d: list[Row | list[int | float]], moved: Sequence[int]) -> tuple[Row, ...]:
    """Finish a shortest-path closed matrix d with a zero diagonal:
    strengthening with floored halves,
    d[i][j] <= floor(d[i][i^1]/2) + floor(d[j^1][j]/2), where j = i^1
    floors the unary bound to an even value, which is the integer
    tightening.

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
    return tuple(map(tuple, d))  # tuple() hands a shared row on as is


def _irredundant(m: Sequence[Row]) -> list[tuple[int, int]]:
    """The entries (a, b), a <= b^1 and a != b, of the tightly closed
    matrix m that imply all the others, ascending. Each finite entry is
    visited once, the largest first, ties by index, and dropped when
    entries still kept witness it: a 2-path a -> k -> b with
    m[a][k] + m[k][b] <= m[a][b], or the two unary bounds whose
    half-sum is at most m[a][b]. Each entry stands for its coherent
    mirror too.

    The witnesses are looked for among the kept entries only, never the
    whole matrix. So by induction on the visits, last first, every
    dropped entry follows from the final set, and that set has the
    points of m: its tight closure is m. This matters on zero cycles:
    with x == y == z, each difference bounded by 0 is the sum of two
    others, and checking against the whole matrix would drop all six;
    against the kept set, a drop takes away the witnesses that need
    the dropped entry, and a cycle through the three stays."""
    n = len(m)
    on = [[x != INF for x in r] for r in m]
    for a in range(n):
        on[a][a] = False
    order = sorted(
        ((m[a][b], a, b) for a in range(n) for b in range(n) if on[a][b] and a <= b ^ 1),
        key=lambda e: (-e[0], e[1], e[2]),
    )
    for c, a, b in order:
        on_a, row_a = on[a], m[a]
        witnessed = any(
            on_a[k] and on[k][b] and row_a[k] + m[k][b] <= c
            for k in range(n) if k != a and k != b
        ) or (
            b != a ^ 1
            and on_a[a ^ 1] and on[b ^ 1][b]
            and row_a[a ^ 1] // 2 + m[b ^ 1][b] // 2 <= c
        )
        if witnessed:
            on[a][b] = on[b ^ 1][a ^ 1] = False
    return [(a, b) for a in range(n) for b in range(n) if on[a][b] and a <= b ^ 1]


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
    being its projection. Coherence makes the four entries
    (2u+s, 2w+t), u < w, of each pair enough; the pairs join their
    groups one at a time, and once every variable is in one group, m is
    one pack."""
    k = len(members)
    half = [_half(m[a][a ^ 1]) for a in range(2 * k)]
    group = list(range(k))
    apart = k
    for u in range(k - 1):
        rp, rn, hp, hn = m[2 * u], m[2 * u + 1], half[2 * u], half[2 * u + 1]
        for w in range(u + 1, k):
            c, d = 2 * w, 2 * w + 1
            if rp[c] == hp + half[d] and rp[d] == hp + half[c] and rn[c] == hn + half[d] and rn[d] == hn + half[c]:
                continue
            if group[u] != group[w]:
                gu, gw = group[u], group[w]
                group = [gu if g == gw else g for g in group]
                apart -= 1
                if apart == 1:
                    return [_Pack(members, m, closed)]
    groups: dict[int, list[int]] = {}
    for u, g in enumerate(group):
        groups.setdefault(g, []).append(u)
    out = []
    for us in groups.values():
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
    vars: Vars
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
        vs = Vars.of(vars)
        return Octagon(vs, tuple(_Pack((i,), FREE, True) for i in range(len(vs))), False, True)

    @staticmethod
    def bottom(vars: Sequence[str]) -> "Octagon":
        return Octagon(Vars.of(vars), (), True, True)

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

    def _node(self, i: int) -> tuple[_Pack, int]:
        """The pack of vars[i], and the node of +vars[i] in it."""
        p = self.packs[i]
        return p, 2 * p.vars.index(i)

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
        """Equality of the closed forms, which is equality of the
        integer point sets: inclusion both ways, which reads dense views
        only over the variables of each pack."""
        if self is other:
            return True
        if not isinstance(other, Octagon):
            return NotImplemented
        if self.vars != other.vars:
            return False
        a, b = self.close(), other.close()
        if a.empty or b.empty:
            return a.empty == b.empty
        return a.packs == b.packs or a.leq(b) and b.leq(a)

    def __hash__(self) -> int:
        """Of the closed unary bounds, which equal elements share."""
        a = self.close()
        bounds = []
        for i, p in enumerate(a.packs):
            q = 2 * p.vars.index(i)
            bounds += (p.m[q][q + 1], p.m[q + 1][q])
        return hash((a.vars, a.empty, *bounds))

    # -- canonical form

    def close(self) -> "Octagon":
        """Tight integer closure, pack by pack. An unclosed element
        keeps its closure for the next call."""
        if self.closed:
            return self
        memo = self._memo_dict()
        if "closed" not in memo:
            new = [_Pack(p.vars, _closure(p.m), True) for p in self._distinct() if not p.closed]
            memo["closed"] = self._with(new)
        return memo["closed"]

    def _memo_dict(self) -> dict:
        if self._memo is None:
            object.__setattr__(self, "_memo", {})
        return self._memo

    # -- lattice

    def is_empty(self) -> bool:
        return self.empty

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
            if isinstance(g, tuple):  # a pack over the same variables on both sides stays whole
                new.append(_Pack(members, m, closed))
                continue
            for p in _split(members, m, closed):
                q, r = pa[p.vars[0]], pb[p.vars[0]]
                if q.vars == r.vars == p.vars:
                    # a row both sides share is its own result: hand it on
                    p.m = tuple([s if s is t else x for x, s, t in zip(p.m, q.m, r.m)])
                new.append(p)
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

    def add(self, terms: Sequence[tuple[int, int]], k: int) -> "Octagon":
        """Meet with sum(s * vars[i] for i, s in terms) <= k: one or two
        terms (position, sign), each sign 1 or -1. The result is
        tightly closed; an unclosed element meets its closed form.

        The new edge a -> b of weight k is refuted with no closing when
        k + m[b][a] < 0. In a tightly closed m every negative cycle it
        closes shows there: through the edge it weighs at least
        k + m[b][a], through the edge and its mirror at least
        2k + m[b][b^1] + m[a^1][a] >= 2(k + m[b][a]). Otherwise the
        result is not empty (module docstring)."""
        if self.empty:
            return self
        if not self.closed:
            return self.close().add(terms, k)
        p, a, q, b, k = self._edge(terms, k)
        members, m = p.vars, p.m
        if q is not p:
            # between two packs the entry is the sum of the halves
            if _half(m[a][a ^ 1]) + _half(q.m[b ^ 1][b]) <= k:
                return self
            members = tuple(sorted(p.vars + q.vars))
            m = self._view(members)
            a, b = 2 * members.index(p.vars[a // 2]) + a % 2, 2 * members.index(q.vars[b // 2]) + b % 2
        if m[a][b] <= k:
            return self  # implied: keeps the element as it is
        if k + m[b][a] < 0:
            return Octagon.bottom(self.vars)
        if len(m) == 2:  # a variable alone: a unary bound, nothing to close
            rows = ((0, k), m[1]) if a == 0 else (m[0], (k, 0))
            return self._with([_Pack(members, rows, True)])
        return self._with([_Pack(members, _close_with(m, a, b, k), True)])

    def entails(self, terms: Sequence[tuple[int, int]], k: int) -> bool:
        """Whether every point of the element satisfies the constraint
        `add` takes, sum(s * vars[i] for i, s in terms) <= k. The closed
        entry of that edge is attained (tight closure is exact), so this
        reads one entry, or two halves between packs, and closes no pack
        when the element is closed."""
        c = self.close()
        if c.empty:
            return True
        p, a, q, b, k = c._edge(terms, k)
        return (p.m[a][b] if q is p else _half(p.m[a][a ^ 1]) + _half(q.m[b ^ 1][b])) <= k

    def _edge(self, terms: Sequence[tuple[int, int]], k: int) -> tuple[_Pack, int, _Pack, int, int]:
        """The constraint of `add` as the edge a -> b of weight k: the
        pack of a, a in it, the pack of b, b in it, and k. One term s*v
        is (s*v) - (-s*v) <= 2k; two are s*v + t*w, (s*v) - (-t*w) <= k."""
        (i, s), *rest = terms
        p, a = self._node(i)
        a += s < 0
        if not rest:
            return p, a, p, a ^ 1, 2 * k
        (j, t), = rest
        q, b = self._node(j)
        return p, a, q, (b + (t < 0)) ^ 1, k

    # -- transfer helpers

    def forget(self, v: str) -> "Octagon":
        if self.empty:
            return self
        return self._forget(self.vars.pos[v])

    def _forget(self, i: int) -> "Octagon":
        a = self.close()
        p, q = a._node(i)
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
        pos = self.vars.pos
        i, k = pos[v], lin.const
        terms = [(pos[w], c) for w, c in lin.coeffs]
        if not terms:
            return self._forget(i).add(((i, 1),), k).add(((i, -1),), -k)
        if len(terms) == 1:
            (j, c), = terms
            if j == i and c in (1, -1):  # v + k, or -v + k: the +v and -v nodes swap first
                return (self if c == 1 else self._negate(i))._shift(i, k)
            if c in (1, -1):
                # v - c*w <= k and c*w - v <= -k
                return self._forget(i).add(((i, 1), (j, -c)), k).add(((i, -1), (j, c)), -k)
        # general affine right side: fall back to interval evaluation
        lo: int | None = k
        hi: int | None = k
        for j, c in terms:
            jlo, jhi = self._bounds(j)
            tlo, thi = (jlo, jhi) if c > 0 else (jhi, jlo)
            lo = None if (lo is None or tlo is None) else lo + c * tlo
            hi = None if (hi is None or thi is None) else hi + c * thi
        out = self._forget(i)
        if hi is not None:
            out = out.add(((i, 1),), hi)
        if lo is not None:
            out = out.add(((i, -1),), -lo)
        return out

    def _negate(self, i: int) -> "Octagon":
        """v := -v, by swapping the +v and -v nodes of v's pack: a
        renaming of signed variables, so a closed pack stays closed."""
        a = self.close()
        pk, p = a._node(i)
        q = p + 1
        rows: list[Row] = []
        for u in range(len(pk.m)):
            r = list(pk.m[u ^ 1] if u in (p, q) else pk.m[u])
            r[p], r[q] = r[q], r[p]
            rows.append(tuple(r))
        return a._with([_Pack(pk.vars, tuple(rows), True)])

    def _shift(self, i: int, k: int) -> "Octagon":
        a = self.close()
        pk, p = a._node(i)
        q = p ^ 1
        rows: list[Row] = []
        for u, row in enumerate(pk.m):
            if u in (p, q):  # +v - w moves by k, -v - w by -k
                s = k if u == p else -k
                r = [x + s for x in row]
                r[u], r[u ^ 1] = 0, row[u ^ 1] + 2 * s
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
        return self._bounds(self.vars.pos[v])

    def _bounds(self, i: int) -> tuple[int | None, int | None]:
        a = self.close()
        if a.empty:
            return (0, -1)
        p, q = a._node(i)
        up = p.m[q][q ^ 1]
        lo = p.m[q ^ 1][q]
        return (None if lo == INF else -(lo // 2), None if up == INF else up // 2)

    def equalities(self) -> Iterator[list[int]]:
        """Yield integer rows over `vars`, coefficients then the
        constant b, meaning sum == b: once per equality inside a pack
        of the closed form. One between packs follows from two unary
        ones, as both variables are then constants."""
        a = self.close()
        for i, p in enumerate(a.packs):
            if p.vars[0] == i:
                yield from a._eqs(p)

    def _eqs(self, p: _Pack) -> list[list[int]]:
        """The equalities of a closed pack, kept with it: callers only read them."""
        if p.eqs is None:
            m, n, eqs = p.m, len(self.vars), []
            for i in range(0, len(m), 2):
                row, mirror = m[i], m[i + 1]  # m[j][i] == m[i^1][j^1]: coherence
                for j in range(i + 1, len(m)):
                    c = row[j]
                    if c == INF or c + mirror[j ^ 1] != 0:
                        continue
                    eq = [0] * (n + 1)
                    eq[p.vars[i // 2]] = 1
                    if j == i + 1:  # +v - (-v) == c
                        eq[n] = c // 2
                    else:  # j even: +v - (+w); j odd: +v - (-w)
                        eq[p.vars[j // 2]], eq[n] = 1 if j % 2 else -1, c
                    eqs.append(eq)
            p.eqs = eqs
        return p.eqs

    def to_formula(self) -> Formula:
        """The closed form as a conjunction of the entries `_irredundant`
        keeps in each pack; nothing between packs (module docstring)."""
        a = self.close()
        if a.empty:
            return FALSE
        entries = []
        for p in a._distinct():
            node = [2 * i + s for i in p.vars for s in (0, 1)]  # in the dense view
            entries += [(node[i], node[j], p.m[i][j]) for i, j in _irredundant(p.m)]
        parts = []
        for i, j, c in sorted(entries):
            # (s*v) - (t*w) <= c, written c - s*v + t*w >= 0
            v, s = a.vars[i // 2], -1 if i % 2 else 1
            if j == i ^ 1:  # w = v, t = -s: s*v <= c/2
                lin = Lin.make({v: -s}, c // 2)
            else:
                lin = Lin.make({v: -s, a.vars[j // 2]: -1 if j % 2 else 1}, c)
            parts.append(ge0(lin))
        return land(*parts) if parts else TRUE
