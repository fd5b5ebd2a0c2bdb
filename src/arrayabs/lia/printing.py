"""Readable rendering of formulas.

Inequality atoms print with negative coefficients moved across the
comparison, so `n - y - 1 >= 0` renders as `n >= y + 1`. Adjacent
conjuncts forming the two halves of an equality recombine as `==`.
"""

from __future__ import annotations

from .formula import Formula, Lin


def _side(pairs: list[tuple[str, int]], const: int) -> str:
    lin = Lin(tuple(sorted(pairs)), const)
    return str(lin)


def atom_str(a: Formula) -> str:
    if a.kind == "dvd":
        return f"{a.mod} | ({a.lin})"
    pos = [(v, c) for v, c in a.lin.coeffs if c > 0]
    neg = [(v, -c) for v, c in a.lin.coeffs if c < 0]
    k = a.lin.const
    lhs_c = 0
    rhs_c = 0
    if k > 0:
        lhs_c = k
    else:
        rhs_c = -k
    if not pos and not lhs_c:
        # move the constant left to avoid an empty side
        return f"0 >= {_side(neg, rhs_c)}"
    return f"{_side(pos, lhs_c)} >= {_side(neg, rhs_c)}"


def _eq_str(lin: Lin) -> str:
    pos = [(v, c) for v, c in lin.coeffs if c > 0]
    neg = [(v, -c) for v, c in lin.coeffs if c < 0]
    k = lin.const
    return f"{_side(pos, max(k, 0))} == {_side(neg, max(-k, 0))}"


def to_str(f: Formula, prec: int = 0) -> str:
    k = f.kind
    if k == "true":
        return "true"
    if k == "false":
        return "false"
    if k in ("ge", "dvd"):
        return atom_str(f)
    if k == "not":
        return "!" + to_str(f.args[0], 3)
    if k == "and":
        # adjacent complementary inequality halves fold back into ==,
        # which keeps printing and reparsing exact inverses
        parts: list[str] = []
        i = 0
        while i < len(f.args):
            a = f.args[i]
            if (
                i + 1 < len(f.args)
                and a.kind == "ge"
                and f.args[i + 1].kind == "ge"
                and f.args[i + 1].lin == -a.lin
            ):
                parts.append(_eq_str(a.lin))
                i += 2
            else:
                parts.append(to_str(a, 2))
                i += 1
        s = " && ".join(parts)
        return f"({s})" if prec > 1 else s
    s = " || ".join(to_str(a, 1) for a in f.args)
    return f"({s})" if prec > 0 else s
