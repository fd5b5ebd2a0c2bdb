"""Conversions between mini-language conditions and arithmetic formulas.

Scalar expressions and conditions map onto linear terms and formulas.
Array reads have no arithmetic counterpart: a caller that meets them
passes a `read` callback that names each read's value, otherwise they
raise BridgeError. The reverse direction renders analysis results back
in source condition syntax, e.g. for ensures-style reporting.
"""

from __future__ import annotations

from typing import Callable

from .lang.ast import (
    Add,
    ArrRead,
    BoolConst,
    Cmp,
    Cond,
    CondAnd,
    CondNot,
    CondOr,
    Expr,
    Mul,
    Num,
    Sub,
    Var,
)
from .lia import FALSE, TRUE, Formula, Lin, eq, land, le, lnot, lor, lt


class BridgeError(ValueError):
    pass


# term for an array read, given the read and its translated index terms
Read = Callable[[ArrRead, tuple[Lin, ...]], Lin]


def expr_to_lin(e: Expr, read: Read | None = None) -> Lin:
    if isinstance(e, Num):
        return Lin.of(e.value)
    if isinstance(e, Var):
        return Lin.var(e.name)
    if isinstance(e, Add):
        return expr_to_lin(e.left, read) + expr_to_lin(e.right, read)
    if isinstance(e, Sub):
        return expr_to_lin(e.left, read) - expr_to_lin(e.right, read)
    if isinstance(e, Mul):
        return expr_to_lin(e.arg, read).scale(e.factor)
    if isinstance(e, ArrRead) and read is not None:
        return read(e, tuple(expr_to_lin(i, read) for i in e.index))
    raise BridgeError(f"no scalar translation for {e!r}")


def cond_to_formula(c: Cond, read: Read | None = None) -> Formula:
    if isinstance(c, BoolConst):
        return TRUE if c.value else FALSE
    if isinstance(c, Cmp):
        a, b = expr_to_lin(c.left, read), expr_to_lin(c.right, read)
        if c.op == "==":
            return eq(a, b)
        if c.op == "!=":
            return lnot(eq(a, b))
        if c.op == "<":
            return lt(a, b)
        if c.op == "<=":
            return le(a, b)
        if c.op == ">":
            return lt(b, a)
        if c.op == ">=":
            return le(b, a)
        raise BridgeError(f"unknown comparison {c.op!r}")
    if isinstance(c, CondAnd):
        return land(*(cond_to_formula(p, read) for p in c.parts))
    if isinstance(c, CondOr):
        return lor(*(cond_to_formula(p, read) for p in c.parts))
    if isinstance(c, CondNot):
        return lnot(cond_to_formula(c.arg, read))
    raise BridgeError(f"not a condition: {c!r}")


def lin_to_expr(lin: Lin) -> Expr:
    """Linear term as a source expression, constant last."""
    out: Expr | None = None
    for v, c in lin.coeffs:
        if out is None:
            if c == 1:
                out = Var(v)
            else:
                out = Mul(c, Var(v))
        elif c == 1:
            out = Add(out, Var(v))
        elif c == -1:
            out = Sub(out, Var(v))
        elif c < 0:
            out = Sub(out, Mul(-c, Var(v)))
        else:
            out = Add(out, Mul(c, Var(v)))
    k = lin.const
    if out is None:
        return Num(k)
    if k > 0:
        return Add(out, Num(k))
    if k < 0:
        return Sub(out, Num(-k))
    return out


def _ge0_to_cmp(lin: Lin) -> Cmp:
    # render lin >= 0 as pos >= neg with all coefficients positive
    pos = Lin.of(0)
    neg = Lin.of(0)
    for v, c in lin.coeffs:
        if c > 0:
            pos = pos + Lin.var(v).scale(c)
        else:
            neg = neg + Lin.var(v).scale(-c)
    if lin.const > 0:
        pos = pos + lin.const
    elif lin.const < 0:
        neg = neg - lin.const
    return Cmp(">=", lin_to_expr(pos), lin_to_expr(neg))


def formula_to_cond(f: Formula) -> Cond:
    """Quantifier-free formula as a source condition.

    Divisibility atoms and boolean variables have no source syntax and
    raise BridgeError; callers fall back to the native formula printer.
    """
    k = f.kind
    if k == "true":
        return BoolConst(True)
    if k == "false":
        return BoolConst(False)
    if k == "atom" and f.op == "ge":
        return _ge0_to_cmp(f.lin)
    if k == "and":
        return _fold_eq([formula_to_cond(p) for p in f.args])
    if k == "or":
        return CondOr(tuple(formula_to_cond(p) for p in f.args))
    if k == "not":
        return CondNot(formula_to_cond(f.args[0]))
    raise BridgeError(f"no source syntax for {k!r}/{f.op!r} formulas")


def _fold_eq(parts: list[Cond]) -> Cond:
    """Merge adjacent a>=b / b>=a pairs into a==b for readability."""
    out: list[Cond] = []
    i = 0
    while i < len(parts):
        a = parts[i]
        b = parts[i + 1] if i + 1 < len(parts) else None
        if (
            isinstance(a, Cmp)
            and isinstance(b, Cmp)
            and a.op == ">="
            and b.op == ">="
            and b.left == a.right
            and b.right == a.left
        ):
            out.append(Cmp("==", a.left, a.right))
            i += 2
        else:
            out.append(a)
            i += 1
    return out[0] if len(out) == 1 else CondAnd(tuple(out))
