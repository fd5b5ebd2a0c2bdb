"""Linear integer arithmetic terms, atoms, and formulas.

Terms are affine expressions c1*v1 + ... + cn*vn + k over named integer
variables. Two atom kinds exist, and an atom's `kind` names it:

    "ge"   lin >= 0
    "dvd"  mod divides lin          (mod >= 2)

Everything else is sugar: t <= u becomes u - t >= 0, t == u becomes the
conjunction u - t >= 0 && t - u >= 0, t < u becomes u - t - 1 >= 0.
Inequality atoms are gcd-reduced with the constant floored, so syntactic
equality of atoms is a sound (in)equality test. Formulas are immutable,
quantifier-free trees over atoms with and/or/not; every variable is a
free integer. Quantifiers appear only as arguments of elimination:
`qe.eliminate_quantifiers(f, bound)` is the quantifier-free form of
exists bound. f, and a universal is its dual, not exists not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Iterator, Mapping


class LiaError(Exception):
    pass


class BudgetError(LiaError):
    """Raised when a solver or QE call exceeds its resource budget."""


# ---------------------------------------------------------------------------
# Linear terms


@dataclass(frozen=True)
class Lin:
    """Affine term: sum of coeff*var plus a constant."""

    coeffs: tuple[tuple[str, int], ...]  # sorted by variable name, no zeros
    const: int = 0

    @staticmethod
    def make(coeffs: Mapping[str, int] | Iterable[tuple[str, int]] = (), const: int = 0) -> "Lin":
        acc: dict[str, int] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for v, c in items:
            acc[v] = acc.get(v, 0) + c
        return Lin(tuple(sorted((v, c) for v, c in acc.items() if c != 0)), const)

    @staticmethod
    def var(name: str, coeff: int = 1) -> "Lin":
        if coeff == 0:
            return Lin((), 0)
        return Lin(((name, coeff),), 0)

    @staticmethod
    def of(value: int) -> "Lin":
        return Lin((), value)

    def __add__(self, other: "Lin | int") -> "Lin":
        if isinstance(other, int):
            return Lin(self.coeffs, self.const + other)
        acc = dict(self.coeffs)
        for v, c in other.coeffs:
            acc[v] = acc.get(v, 0) + c
        return Lin(tuple(sorted((v, c) for v, c in acc.items() if c != 0)), self.const + other.const)

    def __sub__(self, other: "Lin | int") -> "Lin":
        return self + (-other if isinstance(other, int) else other.scale(-1))

    def __neg__(self) -> "Lin":
        return self.scale(-1)

    def __mul__(self, k: int) -> "Lin":
        return self.scale(k)

    __rmul__ = __mul__

    def scale(self, k: int) -> "Lin":
        if k == 0:
            return Lin((), 0)
        return Lin(tuple((v, c * k) for v, c in self.coeffs), self.const * k)

    def coeff(self, var: str) -> int:
        for v, c in self.coeffs:
            if v == var:
                return c
        return 0

    def drop(self, var: str) -> "Lin":
        return Lin(tuple((v, c) for v, c in self.coeffs if v != var), self.const)

    def subst(self, env: Mapping[str, "Lin"]) -> "Lin":
        out = Lin.of(self.const)
        for v, c in self.coeffs:
            if v in env:
                out = out + env[v].scale(c)
            else:
                out = out + Lin.var(v, c)
        return out

    def rename(self, env: Mapping[str, str]) -> "Lin":
        return Lin.make([(env.get(v, v), c) for v, c in self.coeffs], self.const)

    def evaluate(self, model: Mapping[str, int]) -> int:
        return self.const + sum(c * model[v] for v, c in self.coeffs)

    def vars(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def is_const(self) -> bool:
        return not self.coeffs

    def content(self) -> int:
        """gcd of the variable coefficients (0 when constant)."""
        return reduce(math.gcd, (abs(c) for _, c in self.coeffs), 0)

    def __str__(self) -> str:
        parts: list[str] = []
        for v, c in self.coeffs:
            if c == 1:
                term = v
            elif c == -1:
                term = f"-{v}"
            else:
                term = f"{c}*{v}"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term.lstrip("-"))
            else:
                parts.append(term)
        if self.const or not parts:
            k = self.const
            if parts:
                parts.append(("+ " if k >= 0 else "- ") + str(abs(k)))
            else:
                parts.append(str(k))
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Formulas

# Node kinds: "true" "false" "ge" "dvd" "not" "and" "or"


@dataclass(frozen=True)
class Formula:
    kind: str
    # atom payload
    lin: Lin | None = None
    mod: int = 0
    args: tuple["Formula", ...] = ()
    _hash: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.kind, self.lin, self.mod, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # through the constructor, so that an unpickled formula hashes
        # with the string hashes of the process that loads it
        return Formula, (self.kind, self.lin, self.mod, self.args)

    # -- inspectors

    def free_vars(self) -> tuple[str, ...]:
        """Variables in first-occurrence order (deterministic)."""
        return tuple(dict.fromkeys(v for a in self.atoms() for v in a.lin.vars()))

    def walk(self) -> Iterator["Formula"]:
        """Every subformula, preorder."""
        yield self
        for a in self.args:
            yield from a.walk()

    def atoms(self) -> tuple["Formula", ...]:
        """All atom subformulas in first-occurrence order."""
        out: list[Formula] = []
        seen: set[Formula] = set()

        def walk(f: Formula) -> None:
            if f.kind in ("ge", "dvd"):
                if f not in seen:
                    seen.add(f)
                    out.append(f)
            else:
                for a in f.args:
                    walk(a)

        walk(self)
        return tuple(out)

    def evaluate(self, model: Mapping[str, int]) -> bool:
        k = self.kind
        if k == "true":
            return True
        if k == "false":
            return False
        if k == "ge":
            return self.lin.evaluate(model) >= 0
        if k == "dvd":
            return self.lin.evaluate(model) % self.mod == 0
        if k == "not":
            return not self.args[0].evaluate(model)
        if k == "and":
            return all(a.evaluate(model) for a in self.args)
        return any(a.evaluate(model) for a in self.args)

    def __str__(self) -> str:
        from .printing import to_str

        return to_str(self)


TRUE = Formula("true")
FALSE = Formula("false")


def ge0(lin: Lin) -> Formula:
    """Atom lin >= 0, gcd-normalized; constant terms fold to true/false."""
    if lin.is_const():
        return TRUE if lin.const >= 0 else FALSE
    g = lin.content()
    if g > 1:
        # sum(c_i v_i) + k >= 0  with g | c_i  <=>  sum(c_i/g v_i) + floor(k/g) >= 0
        lin = Lin(tuple((v, c // g) for v, c in lin.coeffs), lin.const // g)
    return Formula("ge", lin=lin)


def dvd(m: int, lin: Lin) -> Formula:
    """Atom m | lin, normalized: m >= 2, coefficients reduced mod m."""
    m = abs(m)
    if m == 0:
        return eq0(lin)
    coeffs = tuple((v, c % m) for v, c in lin.coeffs if c % m != 0)
    const = lin.const % m
    if not coeffs:
        return TRUE if const == 0 else FALSE
    g = reduce(math.gcd, (c for _, c in coeffs), m)
    g = math.gcd(g, const) if const else g
    if g > 1 and const % g == 0:
        m //= g
        coeffs = tuple((v, c // g) for v, c in coeffs)
        const //= g
        if m == 1:
            return TRUE
    return Formula("dvd", lin=Lin(coeffs, const), mod=m)


def eq0(lin: Lin) -> Formula:
    return land(ge0(lin), ge0(-lin))


def lnot(f: Formula) -> Formula:
    if f.kind == "true":
        return FALSE
    if f.kind == "false":
        return TRUE
    if f.kind == "not":
        return f.args[0]
    if f.kind == "ge":
        # not(lin >= 0)  <=>  -lin - 1 >= 0
        return ge0(-f.lin - 1)
    return Formula("not", args=(f,))


def land(*fs: Formula) -> Formula:
    flat: list[Formula] = []
    seen: set[Formula] = set()
    for f in fs:
        if f.kind == "false":
            return FALSE
        if f.kind == "true":
            continue
        children = f.args if f.kind == "and" else (f,)
        for c in children:
            if c.kind == "false":
                return FALSE
            if c.kind == "true" or c in seen:
                continue
            seen.add(c)
            flat.append(c)
    for c in flat:
        if lnot(c) in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return Formula("and", args=tuple(flat))


def lor(*fs: Formula) -> Formula:
    flat: list[Formula] = []
    seen: set[Formula] = set()
    for f in fs:
        if f.kind == "true":
            return TRUE
        if f.kind == "false":
            continue
        children = f.args if f.kind == "or" else (f,)
        for c in children:
            if c.kind == "true":
                return TRUE
            if c.kind == "false" or c in seen:
                continue
            seen.add(c)
            flat.append(c)
    for c in flat:
        if lnot(c) in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Formula("or", args=tuple(flat))


def implies(a: Formula, b: Formula) -> Formula:
    return lor(lnot(a), b)


# comparison sugar over Lin


def le(a: Lin, b: Lin) -> Formula:
    return ge0(b - a)


def lt(a: Lin, b: Lin) -> Formula:
    return ge0(b - a - 1)


def eq(a: Lin, b: Lin) -> Formula:
    return eq0(a - b)


def ne(a: Lin, b: Lin) -> Formula:
    return lor(lt(a, b), lt(b, a))


# ---------------------------------------------------------------------------
# Structural operations


def nnf(f: Formula, neg: bool = False) -> Formula:
    """Negation normal form; `not` survives only on dvd atoms."""
    k = f.kind
    if k == "true":
        return FALSE if neg else TRUE
    if k == "false":
        return TRUE if neg else FALSE
    if k == "ge":
        return ge0(-f.lin - 1) if neg else f
    if k == "dvd":
        return Formula("not", args=(f,)) if neg else f
    if k == "not":
        return nnf(f.args[0], not neg)
    if k == "and":
        parts = tuple(nnf(a, neg) for a in f.args)
        return lor(*parts) if neg else land(*parts)
    if k == "or":
        parts = tuple(nnf(a, neg) for a in f.args)
        return land(*parts) if neg else lor(*parts)
    raise LiaError(f"bad node {k}")


def subst(f: Formula, env: Mapping[str, Lin]) -> Formula:
    """Substitution of terms for integer variables."""
    if not env:
        return f
    k = f.kind
    if k in ("true", "false"):
        return f
    if k == "ge":
        return ge0(f.lin.subst(env))
    if k == "dvd":
        return dvd(f.mod, f.lin.subst(env))
    if k == "not":
        return lnot(subst(f.args[0], env))
    if k == "and":
        return land(*(subst(a, env) for a in f.args))
    if k == "or":
        return lor(*(subst(a, env) for a in f.args))
    raise LiaError(f"bad node {k}")


def rename(f: Formula, env: Mapping[str, str]) -> Formula:
    return subst(f, {a: Lin.var(b) for a, b in env.items()})


def conj_literals(f: Formula) -> Iterator[Formula]:
    """Iterate the literal children of a conjunction (f itself if literal)."""
    if f.kind == "and":
        for a in f.args:
            yield from conj_literals(a)
    else:
        yield f


def simplify(f: Formula) -> Formula:
    """Cheap syntactic simplification: constant folding plus bound merging.

    Within a conjunction, ge-atoms sharing a coefficient vector keep only
    the tightest bound, and opposite vectors are checked for an empty
    interval. Dually for disjunctions. Sound and linear-ish, not complete.
    """
    k = f.kind
    if k in ("true", "false", "ge", "dvd"):
        return f
    if k == "not":
        return lnot(simplify(f.args[0]))
    parts = [simplify(a) for a in f.args]
    if k == "and":
        base = land(*parts)
        if base.kind != "and":
            return base
        return _merge_bounds(base, conj=True)
    base = lor(*parts)
    if base.kind != "or":
        return base
    return _merge_bounds(base, conj=False)


def _merge_bounds(f: Formula, conj: bool) -> Formula:
    # f is an and/or node; merge comparable ge-atoms among direct children.
    best: dict[tuple[tuple[str, int], ...], int] = {}
    others: list[Formula] = []
    for a in f.args:
        if a.kind == "ge":
            key = a.lin.coeffs
            c = a.lin.const
            if key in best:
                # lin + c >= 0 is tighter for smaller c
                best[key] = min(best[key], c) if conj else max(best[key], c)
            else:
                best[key] = c
        else:
            others.append(a)
    if conj:
        # lin + c >= 0 and -(lin) + c' >= 0: empty iff c + c' < 0
        for key, c in best.items():
            nkey = tuple((v, -co) for v, co in key)
            if nkey in best and c + best[nkey] < 0:
                return FALSE
    atoms = [Formula("ge", lin=Lin(key, c)) for key, c in best.items()]
    atoms.sort(key=lambda a: (a.lin.coeffs, a.lin.const))
    return land(*atoms, *others) if conj else lor(*atoms, *others)
