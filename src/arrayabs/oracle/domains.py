"""Executable set semantics of the cell abstraction on tiny domains.

Everything here is brute force on purpose: arrays are tuples over an
explicit index set, abstraction and concretization enumerate, and the
laws the rest of the package relies on can be checked by exhaustion.
Scalar state rides along as an opaque hashable `s` component.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Tuple

Func = Tuple[int, ...]  # array content, aligned with FiniteDomain.A
Pair = Tuple[object, Func]  # (scalar state, array content)


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteDomain:
    """Explicit index, value, and scalar-state sets.

    A holds index points (ints, or tuples for several dimensions); B
    holds values; S holds whatever the scalar part of the state is,
    one hashable entry per state. Sizes multiply into the enumeration
    budget, so keep them tiny.
    """

    A: tuple
    B: tuple[int, ...]
    S: tuple = ((),)
    budget: int = 1 << 16

    def __post_init__(self):
        if not (self.A and self.B and self.S):
            raise OracleError("A, B, and S must be nonempty")
        if len(self.A) * len(self.B) * len(self.S) > self.budget:
            raise OracleError("domain exceeds the enumeration budget")
        for xs in (self.A, self.B, self.S):
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


@dataclass(frozen=True)
class AbstractSet1:
    """Set of (s, a, b): scalar state, one position, its value."""

    tuples: FrozenSet[tuple]

    @staticmethod
    def of(items: Iterable[tuple]) -> "AbstractSet1":
        return AbstractSet1(frozenset(items))

    def __le__(self, other: "AbstractSet1") -> bool:
        return self.tuples <= other.tuples

    def __or__(self, other: "AbstractSet1") -> "AbstractSet1":
        return AbstractSet1(self.tuples | other.tuples)


@dataclass(frozen=True)
class AbstractSet2:
    """Set of (s, a, b, a2, b2) with a < a2: two ordered positions."""

    tuples: FrozenSet[tuple]

    def __post_init__(self):
        for t in self.tuples:
            if not t[1] < t[3]:
                raise OracleError(f"positions must be strictly ordered: {t}")

    def __le__(self, other: "AbstractSet2") -> bool:
        return self.tuples <= other.tuples

    def __or__(self, other: "AbstractSet2") -> "AbstractSet2":
        return AbstractSet2(self.tuples | other.tuples)


# ------------------------------------------------------------ single index


def alpha1(concrete: Iterable[Pair], dom: FiniteDomain) -> AbstractSet1:
    """Graph abstraction: one tuple per position of each pair."""
    out = set()
    for s, f in concrete:
        for i, a in enumerate(dom.A):
            out.add((s, a, f[i]))
    return AbstractSet1(frozenset(out))


def gamma1(x: AbstractSet1, dom: FiniteDomain) -> frozenset:
    """Pairs whose every column is present in x."""
    keep = []
    for s, f in dom.pairs():
        if all((s, a, f[i]) in x.tuples for i, a in enumerate(dom.A)):
            keep.append((s, f))
    return frozenset(keep)


# ------------------------------------------------- ordered double index


def alpha2lt(concrete: Iterable[Pair], dom: FiniteDomain) -> AbstractSet2:
    out = set()
    for s, f in concrete:
        for i, a in enumerate(dom.A):
            for j, a2 in enumerate(dom.A):
                if a < a2:
                    out.add((s, a, f[i], a2, f[j]))
    return AbstractSet2(frozenset(out))


def gamma2lt(x: AbstractSet2, dom: FiniteDomain) -> frozenset:
    """Pairs all of whose ordered position pairs are present in x.

    With a single index point there are no ordered pairs, so the empty
    abstract set concretizes to everything.
    """
    keep = []
    for s, f in dom.pairs():
        ok = True
        for i, a in enumerate(dom.A):
            for j, a2 in enumerate(dom.A):
                if a < a2 and (s, a, f[i], a2, f[j]) not in x.tuples:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            keep.append((s, f))
    return frozenset(keep)

