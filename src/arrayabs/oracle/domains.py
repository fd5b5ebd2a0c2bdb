"""Executable set semantics of the cell abstraction on tiny domains.

Everything here is brute force on purpose: arrays are tuples over an
explicit index set, abstraction and concretization enumerate, and the
laws the rest of the package relies on can be checked by exhaustion.
Scalar state rides along as an opaque hashable `s` component.

The abstraction is a k-cell layout, `transform.ArrayCells(count,
ordered)`, the same type the translation reads. An instantiation is a
k-tuple of positions (strictly increasing for an ordered layout); an
abstract element is a plain frozenset of `(s, positions, values)`
triples, one value per position. alpha reads every pair's array at
every instantiation; gamma keeps the pairs whose every instantiation
is covered.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Tuple

from ..transform import ArrayCells

Func = Tuple[int, ...]  # array content, aligned with FiniteDomain.A
Pair = Tuple[object, Func]  # (scalar state, array content)


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteDomain:
    """Explicit index, value, and scalar-state sets.

    A holds the index points 0..n-1; B holds values; S holds whatever
    the scalar part of the state is, one hashable entry per state.
    Sizes multiply into the enumeration budget, so keep them tiny.
    """

    A: tuple[int, ...]
    B: tuple[int, ...]
    S: tuple = ((),)
    budget: int = 1 << 16

    def __post_init__(self):
        if not (self.A and self.B and self.S):
            raise OracleError("A, B, and S must be nonempty")
        if self.A != tuple(range(len(self.A))):
            raise OracleError("index points must be 0..len-1")
        if len(self.A) * len(self.B) * len(self.S) > self.budget:
            raise OracleError("domain exceeds the enumeration budget")
        for xs in (self.B, self.S):
            if len(set(xs)) != len(xs):
                raise OracleError("domain sets must not repeat elements")

    def functions(self) -> list[Func]:
        """Every array content, as a tuple parallel to A."""
        return [tuple(f) for f in itertools.product(self.B, repeat=len(self.A))]

    def pairs(self) -> list[Pair]:
        """Every concrete (scalar state, array content) pair."""
        return [(s, f) for s in self.S for f in self.functions()]

    def size_str(self) -> str:
        return f"|A|={len(self.A)} |B|={len(self.B)} |S|={len(self.S)}"


def instantiations(points: Sequence, cells: ArrayCells) -> list[tuple]:
    """Every k-tuple of points, strictly increasing when the layout is
    ordered. With fewer points than ordered cells there is none, so
    every abstract element concretizes to everything."""
    insts = itertools.product(points, repeat=cells.count)
    if cells.ordered:
        return [t for t in insts if all(x < y for x, y in zip(t, t[1:]))]
    return list(insts)


def universe(dom: FiniteDomain, cells: ArrayCells) -> list[tuple]:
    """Every (s, positions, values) whose values agree wherever two
    positions coincide (for one cell or an ordered layout nothing is
    dropped)."""
    return [
        (s, ps, vs)
        for s in dom.S
        for ps in instantiations(dom.A, cells)
        for vs in itertools.product(dom.B, repeat=cells.count)
        if len(set(zip(ps, vs))) == len(set(ps))
    ]


def covers(x: frozenset, s, f: Sequence | Mapping, insts: Iterable[tuple]) -> bool:
    """Whether x holds the values of content f at every instantiation
    (f maps each position to its value)."""
    return all((s, ps, tuple(f[a] for a in ps)) in x for ps in insts)


def alpha(concrete: Iterable[Pair], dom: FiniteDomain, cells: ArrayCells) -> frozenset:
    """One triple per instantiation of each pair."""
    insts = instantiations(dom.A, cells)
    return frozenset((s, ps, tuple(f[a] for a in ps)) for s, f in concrete for ps in insts)


def gamma(x: frozenset, dom: FiniteDomain, cells: ArrayCells) -> frozenset:
    """Pairs whose every instantiation is present in x."""
    insts = instantiations(dom.A, cells)
    return frozenset((s, f) for s, f in dom.pairs() if covers(x, s, f, insts))
