"""Reduced product of the octagon and affine-equality domains, by
position in the `affine.Vars` tuple both share: octagonal rows (unit
coefficients on one or two variables) go to `Octagon.add` as terms,
the closed octagon's equalities to `AffineEqs.add_eq` as rows.

The affine part is lazy. `aff is None` means absent: the part holds
exactly the equalities of the element's own octagon. An `AffineEqs` is
built (`_affine`) only where an operation makes a row the octagon
cannot hold; a part is present only if it holds a row its closed
octagon does not entail, so `==` and the hash mean "same element".
Each operation gives the eager product's element (both parts always
built), once reduced, by two facts. Tight closure is exact: every entry of a closed
non-empty octagon is attained by an integer point, so it entails each
octagon constraint and equality that holds on its points. And the part
of every element an analysis keeps implies its octagon's equalities:
`reduce` reads them, `assign` and `forget` keep them, and a join or a
widening keeps them, as an equality of the result holds on both sides.

- A guard's octagon meet keeps a part absent: the next reduction
  pushes no row that the tighter octagon does not entail.
- `assign` of a constant or +-w + k (w may be v), and `forget`, are
  exact images in the octagon as in Karr's domain. Another right
  side the octagon bounds by intervals; the part stays absent when
  that pins v (every variable of lin constant), else it is built.
- `join` of absent parts takes the hull of their equality sets, less
  the packs both share by identity (the same rows, over variables of
  their own). Equal sets, or one side's rows among the other's: the
  hull is the smaller side. Only v = c on both sides: constants that
  move by one magnitude keep v - w or v + w constant, and a second
  magnitude makes a non-octagonal row ({i=0, t=0} and {i=1, t=2} give
  t = 2i). An octagonal hull holds on both closed sides, so their
  octagon join, entrywise on the dense views, keeps it. Other joins
  build the Zassenhaus hull.
- `widen` keeps an octagonal hull too. It keeps each entry of its
  left side as stored that the closed right side does not exceed, and
  a left side that widenings made from a closed element stores every
  equality of its closure, since both sides that made it held it.
- `leq` against an absent side is `Octagon.leq`: below its octagon its
  equalities hold, so by exactness the left part implies them.
- `reduce` closes an absent element. A present one exchanges until the
  octagon adds no row (entries only tighten, rank only grows), then is
  absent if every row is octagonal, each then entailed.

A present part's memo, outside `==` (iterated reduction, Cousot,
Cousot and Mauborgne, FoSSaCS 2011): reduced; pushed rows, entailed by
its octagon; read packs, whose equalities it holds. A meet keeps the
last two; `assign` and `forget` the pushed rows without v, and read
their own closed packs.

Guards. `compile_guard(f, vars, neg)` lowers `nnf(f, neg)` node for
node: an octagonal inequality to the terms of `Octagon.add`, any other
atom to top; an "and" meets its parts until one empties the octagon,
then adds the row lin = 0 of each pair lin >= 0, -lin >= 0, building
an absent part only for a non-octagonal one; an "or" joins the meets
of its parts. Those carry the part of the element met, not their own
octagons', so their join is an octagon join beside it, unless an
"and" below adds rows: such a guard (`_Eager`) builds the part first.
It meets as that normal form walked would, self handed back included.
`Guard.atoms` hands an atom, or an "and" of atoms with no wide row, to
the walker's weak-update check (`abstract.py`) as its octagon atoms.
Widenings are never reduced: re-tightening could break termination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..lia import FALSE, Formula, Lin, eq0, land, nnf
from .affine import AffineEqs, Vars
from .octagon import Octagon, lower, octagonal


def _terms(row: Sequence[int]) -> list[tuple[int, int]]:
    """A row's nonzero (position, coefficient) terms."""
    return [(i, c) for i, c in enumerate(row[:-1]) if c]


def _wide(row: Sequence[int]) -> bool:
    return not octagonal([c for _, c in _terms(row)])


def _entails(o: Octagon, rows) -> bool:
    """Whether the octagon o entails every row, sum = b; a row it
    cannot hold is not entailed."""
    return all(not _wide(r) and o.entails([(i, -c) for i, c in _terms(r)], -r[-1])
               and o.entails(_terms(r), r[-1]) for r in rows)


def _octagonal_hull(a: Octagon, b: Octagon) -> bool:
    """Whether a filter finds the affine hull of the equalities of
    closed a and b, less the packs both share, octagonal (module
    docstring)."""
    apart = ([e for i, p in enumerate(x.packs) if p.vars[0] == i and p is not y.packs[i] for e in x._eqs(p)]
             for x, y in ((a, b), (b, a)))
    e1, e2 = sorted(apart, key=len)
    if e1 == e2 or all(e in e2 for e in e1):
        return True
    c1, c2 = ({_terms(e)[0][0]: e[-1] for e in es if len(_terms(e)) == 1} for es in (e1, e2))
    # two constants that move by different magnitudes tie v to w
    moves = {abs(c2[v] - c) for v, c in c1.items() if v in c2} - {0}
    return len(c1) + len(c2) == len(e1) + len(e2) and len(moves) < 2


@dataclass(frozen=True)
class Product:
    oct: Octagon
    aff: AffineEqs | None = None  # None: absent (module docstring)
    # the memo of a present part: reduced, pushed rows, read packs
    _reduced: bool = field(default=False, compare=False, repr=False)
    _pushed: tuple = field(default=(), compare=False, repr=False)
    _read: tuple = field(default=(), compare=False, repr=False)

    @staticmethod
    def top(vars: Sequence[str]) -> "Product":
        return Product(Octagon.top(Vars.of(vars)))

    @staticmethod
    def bottom(vars: Sequence[str]) -> "Product":
        """The empty element, one per `Vars` tuple, which keeps it."""
        vs = Vars.of(vars)
        if Product not in vs.memo:
            vs.memo[Product] = Product(Octagon.bottom(vs))
        return vs.memo[Product]

    @property
    def vars(self) -> tuple[str, ...]:
        return self.oct.vars

    def is_empty(self) -> bool:
        return self.oct.is_empty() or self.aff is not None and self.aff.is_empty()

    def _affine(self) -> AffineEqs:
        """The affine part, built from the closed octagon when absent."""
        if self.aff is not None:
            return self.aff
        o = self.oct.close()
        return AffineEqs.bottom(o.vars) if o.empty else AffineEqs.top(o.vars)._canon(list(o.equalities()))

    def _meet(self, o: Octagon, a: AffineEqs | None) -> "Product":
        """self met with the facts that made o and a: self if neither moved."""
        if o is self.oct and a is self.aff:
            return self
        return Product(o, a, False, self._pushed, self._read)

    def reduce(self) -> "Product":
        if self._reduced:
            return self
        o, a = self.oct.close(), self.aff
        if a is None and not o.empty:
            return self if o is self.oct else Product(o)
        pushed, read = self._pushed, self._read
        while True:
            if o.is_empty() or a.is_empty():
                return Product.bottom(self.vars)
            # affine rows -> octagon, sum = b as sum >= b, then sum <= b
            if a.rows is not pushed:
                held = set(pushed)
                for row in a.rows:
                    if row not in held and not _wide(row):
                        up = _terms(row)
                        o = o.add([(i, -c) for i, c in up], -row[-1]).add(up, row[-1])
                pushed = a.rows
                continue
            # equalities -> affine rows; add_eq hands back self when implied
            before = a
            if o.packs is not read:
                for row in o.equalities():
                    a = a.add_eq(row)
                read = o.packs
            if a is before:
                return Product(o, a, True, pushed, read) if any(map(_wide, a.rows)) else Product(o)

    def _moved(self, o: Octagon, a: AffineEqs, v: str) -> "Product":
        """The image o (closed), a of an assignment or a havoc of v."""
        if not a.empty and _entails(o, a.rows):
            return Product(o)
        return Product(o, a, False, tuple(row for row in self._pushed if not row[self.vars.pos[v]]), o.packs)

    # -- lattice

    def leq(self, other: "Product") -> bool:
        if self.is_empty():
            return True
        return self.oct.leq(other.oct) and (other.aff is None or self._affine().leq(other.aff))

    def _hull(self, other: "Product", o: Octagon) -> AffineEqs | None:
        """The affine part of o, the join or widening of self and other."""
        if self.aff is None and other.aff is None and _octagonal_hull(self.oct.close(), other.oct.close()):
            return None
        a = self._affine().join(other._affine())
        return None if not a.empty and _entails(o.close(), a.rows) else a

    def join(self, other: "Product") -> "Product":
        if self.is_empty() or other.is_empty():
            return other if self.is_empty() else self
        o = self.oct.join(other.oct)
        return Product(o, self._hull(other, o))

    def widen(self, other: "Product") -> "Product":
        # componentwise only; never reduce a widened element
        if self.is_empty():
            return other
        o = self.oct.widen(other.oct)
        return Product(o, self.aff if other.is_empty() else self._hull(other, o))

    # -- transfer

    def assign(self, v: str, lin: Lin) -> "Product":
        o, cs = self.oct.assign(v, lin), lin.coeffs
        if self.aff is None:
            if not cs or len(cs) == 1 and cs[0][1] in (1, -1):
                return Product(o)
            lo, hi = o.bounds(v)
            if lo is not None and lo == hi:
                return Product(o)
        return self._moved(o, self._affine().assign(v, lin), v)

    def forget(self, v: str) -> "Product":
        o = self.oct.forget(v)
        return Product(o) if self.aff is None else self._moved(o, self.aff.forget(v), v)

    def assume(self, f: Formula) -> "Product":
        """Meet with f through its guard; self if nothing changes."""
        return compile_guard(f, self.vars).meet(self)

    # -- output

    def to_formula(self) -> Formula:
        """The reduced octagon and the affine rows it cannot hold."""
        r = self.reduce()
        if r.is_empty():
            return FALSE
        rows = filter(_wide, r.aff.rows if r.aff is not None else ())
        return land(r.oct.to_formula(), *(eq0(Lin.make(zip(r.vars, row), -row[-1])) for row in rows))


# -- guards


class Guard:
    """A condition compiled over the positions of one `Vars` tuple;
    `meet(p)` is `p.assume` of it. `atoms` is the tuple of octagon
    atoms, (terms, bound) as `Octagon.add` takes them, whose conjunction
    the guard is on an element with an absent affine part, or None when
    it is not one. This base meets as top."""

    __slots__ = ()
    atoms: tuple | None = None

    def meet(self, p: Product) -> Product:
        return p


class _Bottom(Guard):
    __slots__ = ()

    def meet(self, p: Product) -> Product:
        return Product.bottom(p.vars)


class _Atom(Guard):
    """An octagonal inequality as the terms and bound of `Octagon.add`."""

    __slots__ = ("terms", "k", "atoms")

    def __init__(self, terms: list[tuple[int, int]], k: int) -> None:
        self.terms, self.k, self.atoms = terms, k, ((terms, k),)

    def meet(self, p: Product) -> Product:
        return p._meet(p.oct.add(self.terms, self.k), p.aff)


class _And(Guard):
    """Parts met in turn, then the rows of complementary pairs."""

    __slots__ = ("parts", "rows", "wide", "atoms")

    def __init__(self, parts: list[Guard], rows: list[tuple[int, ...]]) -> None:
        self.parts, self.rows, self.wide = parts, rows, any(map(_wide, rows))
        # octagonal rows are the pairs of its atoms: they add nothing
        # to an absent part
        if not self.wide and all(isinstance(g, _Atom) for g in parts):
            self.atoms = tuple(a for g in parts for a in g.atoms)
        else:
            self.atoms = None

    def meet(self, p: Product) -> Product:
        q = p
        for g in self.parts:
            q = g.meet(q)
            if q.oct.empty:
                return q
        # also with no octagonal part: the walk stops at an empty octagon
        if q.oct.empty or q.aff is None and not self.wide:
            return q
        a = base = p._affine() if q.aff is None else q.aff
        for row in self.rows:
            a = a.add_eq(row)
        return q if a is base else q._meet(q.oct, a)


class _Or(Guard):
    """The join of the parts, each met from the same element."""

    __slots__ = ("parts",)

    def __init__(self, parts: list[Guard]) -> None:
        self.parts = parts

    def meet(self, p: Product) -> Product:
        first, *rest = [g.meet(p) for g in self.parts]
        for q in rest:
            # the parts carry the affine part of p (module docstring)
            if first.is_empty():
                first = q
            elif not q.is_empty():
                first = Product(first.oct.join(q.oct), None if first.aff is None else first.aff.join(q.aff))
        return first


class _Eager(Guard):
    """A guard whose "or" has an "and" with rows below: met built."""

    __slots__ = ("guard",)

    def __init__(self, guard: Guard) -> None:
        self.guard = guard

    def meet(self, p: Product) -> Product:
        q = p if p.aff is not None else Product(p.oct, p._affine())
        r = self.guard.meet(q)
        return p if r is q else r


_TOP, _BOTTOM = Guard(), _Bottom()


def compile_guard(f: Formula, vars: Sequence[str], neg: bool = False) -> Guard:
    """The guard of f, or of its negation when neg, over the positions
    of vars; a variable of f outside vars raises `ValueError`."""
    vs = Vars.of(vars)
    unknown = [v for g in f.walk() if g.lin is not None for v in g.lin.vars() if v not in vs.pos]
    if unknown:
        raise ValueError(f"unknown variable {unknown[0]}")
    g = _lowered(nnf(f, neg), vs)
    return _Eager(g) if _rows_under_or(g) else g


def _rows_under_or(g: Guard, under: bool = False) -> bool:
    if isinstance(g, _And):
        return under and bool(g.rows) or any(_rows_under_or(c, under) for c in g.parts)
    return isinstance(g, _Or) and any(_rows_under_or(c, True) for c in g.parts)


def _lowered(f: Formula, vs: Vars) -> Guard:
    """The guard of f, in negation normal form, node for node."""
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
