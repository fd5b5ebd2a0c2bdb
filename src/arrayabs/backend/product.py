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
and Mauborgne (FoSSaCS 2011), run only on what an operation could have
changed, as the packs of Singh, Puschel and Vechev (PLDI 2015) are. An
element's memo has four parts, none of them part of `==` or the hash:

- reduced: the element is its own reduction, and `reduce` hands it
  back as is;
- pushed rows: affine rows its octagon entails, which `reduce` does not
  push again;
- read packs: packs of a closed octagon over the same tuple whose
  equalities its affine part holds. `reduce` reads equalities only from
  packs not among them (by identity), and of those only the equalities
  that no read pack holds (by value);
- equalities held: its affine part holds every equality of its own
  octagon. `reduce` then takes that octagon's closed packs as the read
  ones, so it reads only the packs that its own row pushes change.

Pushing an entailed row or adding a held equality changes nothing, so
`reduce` gives the result of the full exchange. It sets all four
parts; `top` holds its equalities, and the bottom, one per `Vars`
tuple (kept in its `memo`), is reduced. The operations carry the memo
on as follows, each by an exact argument. Two use that tight closure
is exact: every entry of a closed non-empty octagon is attained by an
integer point, so an octagon constraint that holds on all its points
is entailed, and an equality that holds on all its points is one of
its equalities or, between packs, follows from two unary ones.

- A meet (a guard) keeps the pushed rows and the read packs: an octagon
  meet only tightens, so it still entails the rows, and an affine meet
  only adds rows, so it still holds the equalities. It drops the flag,
  since a tighter octagon can have new equalities; the packs of the
  closed octagon the flag spoke of become its read packs.
- `join` and `widen` hold the equalities when both sides do. An
  equality of the resulting octagon, which contains both sides, holds
  on the points of both, so by exactness it is an equality of each;
  each affine part implies it, and so does the affine hull of the two.
  They keep no pushed row.
- `assign` and `forget` of v keep the flag, and the pushed rows that do
  not name v: the new octagon constrains the other variables as the old
  one did. For the flag, take an equality E of the new octagon. After a
  havoc, v is unconstrained, so E does not name v; it holds on the old
  octagon, which the new one contains, so by exactness the old affine
  part implies it, and so does its projection away from v. After
  v := lin, E with lin for v holds on every point of the old octagon,
  whose image the new one contains. When lin is a constant or +-w + k,
  that is a constant, an octagon equality or a unary one (2w = c),
  which by exactness the old affine part implies; its exact image, the
  new affine part, then implies E. For any other lin the octagon bounds
  v alone in its pack by evaluating lin on intervals, so an E that
  names v is v = c, which needs every variable of lin to be a constant
  of the old octagon, pinned by the old affine part; so the new affine
  part pins v to c too.

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
An "and" stops at the first part that leaves the octagon empty, since
the meet is then empty whatever follows. `compile_guard` refuses a
condition that names a variable outside the tuple, of any shape, with
a `ValueError`.
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
    # the reduction memo (module docstring): reduced, pushed rows, read
    # packs, equalities held
    _reduced: bool = field(default=False, compare=False, repr=False)
    _pushed: tuple = field(default=(), compare=False, repr=False)
    _read: tuple = field(default=(), compare=False, repr=False)
    _held: bool = field(default=False, compare=False, repr=False)

    @staticmethod
    def top(vars: Sequence[str]) -> "Product":
        vs = Vars.of(vars)
        return Product(Octagon.top(vs), AffineEqs.top(vs), _held=True)

    @staticmethod
    def bottom(vars: Sequence[str]) -> "Product":
        """The empty element, one per `Vars` tuple, which keeps it."""
        vs = Vars.of(vars)
        b = vs.memo.get(Product)
        if b is None:
            b = vs.memo[Product] = Product(Octagon.bottom(vs), AffineEqs.bottom(vs), True)
        return b

    @property
    def vars(self) -> tuple[str, ...]:
        return self.oct.vars

    def is_empty(self) -> bool:
        return self.oct.is_empty() or self.aff.is_empty()

    def _as_bottom(self) -> "Product":
        return Product.bottom(self.vars)

    def _meet(self, o: Octagon, a: AffineEqs) -> "Product":
        """self met with facts that made o and a: self itself when
        neither moved, else the meet, which keeps the pushed rows and
        the read packs, the closed octagon's packs when self holds its
        equalities (module docstring)."""
        if o is self.oct and a is self.aff:
            return self
        read = self.oct.close().packs if self._held else self._read
        return Product(o, a, False, self._pushed, read)

    def reduce(self) -> "Product":
        if self._reduced:
            return self
        o, a = self.oct.close(), self.aff
        pushed = self._pushed
        read = o.packs if self._held else self._read
        while True:
            if o.is_empty() or a.is_empty():
                return self._as_bottom()
            # affine rows -> octagon: each row sum = b that it can hold
            # (one or two unit coefficients), as sum >= b, then sum <= b
            if a.rows is not pushed:
                held = set(pushed)
                n = len(a.vars)
                for row in a.rows:
                    if row in held:
                        continue
                    up = [(i, row[i]) for i in range(n) if row[i]]
                    if octagonal([c for _, c in up]):
                        o = o.add([(i, -c) for i, c in up], -row[n]).add(up, row[n])
                pushed = a.rows
                if o.is_empty():
                    return self._as_bottom()
            # equalities of the closed octagon -> affine rows; add_eq
            # hands back the element itself for an implied row
            before = a
            if o.packs is not read:
                for row in o.equalities(read):
                    a = a.add_eq(row)
                read = o.packs
            if a is before:
                return Product(o, a, True, pushed, read, True)

    def _kept(self, v: str) -> tuple:
        """The pushed rows that do not name v, which an assignment or a
        havoc of v leaves entailed (module docstring)."""
        c = self.vars.pos[v]
        if not any(row[c] for row in self._pushed):
            return self._pushed
        return tuple(row for row in self._pushed if not row[c])

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
        held = self._held and other._held
        return Product(self.oct.join(other.oct), self.aff.join(other.aff), _held=held)

    def widen(self, other: "Product") -> "Product":
        # componentwise only; never reduce a widened element
        if self.is_empty():
            return other
        held = self._held and other._held
        return Product(self.oct.widen(other.oct), self.aff.widen(other.aff), _held=held)

    # -- transfer

    def assign(self, v: str, lin: Lin) -> "Product":
        o, a = self.oct.assign(v, lin), self.aff.assign(v, lin)
        return Product(o, a, False, self._kept(v), (), self._held)

    def forget(self, v: str) -> "Product":
        o, a = self.oct.forget(v), self.aff.forget(v)
        return Product(o, a, False, self._kept(v), (), self._held)

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
    """Parts met in turn, up to the first that empties the octagon,
    then the affine rows of the complementary inequality pairs among
    the conjuncts."""

    __slots__ = ("parts", "rows")

    def __init__(self, parts: list[Guard], rows: list[tuple[int, ...]]) -> None:
        self.parts, self.rows = parts, rows

    def meet(self, p: Product) -> Product:
        for g in self.parts:
            p = g.meet(p)
            if p.oct.empty:
                return p
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
    of vars (module docstring). Every variable of f must be one of vars."""
    vs = Vars.of(vars)
    unknown = [v for g in f.walk() if g.lin is not None for v in g.lin.vars() if v not in vs.pos]
    if unknown:
        raise ValueError(f"unknown variable {unknown[0]}")
    return _lowered(nnf(f, neg), vs)


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
