"""Conversions between mini-language conditions and arithmetic formulas.

Scalar expressions and conditions map onto linear terms and formulas.
Array reads have no arithmetic counterpart: a caller that meets them
passes a `read` callback that names each read's value, otherwise they
raise BridgeError. The reverse direction renders analysis results back
in source condition syntax, e.g. for ensures-style reporting: it parses
what the formula printer writes, so the printer alone decides which
side of a comparison each term goes on and when two inequalities read
as one equality.
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
from .lang.parser import ParseError, parse_condition
from .lia import FALSE, TRUE, Formula, Lin, eq, land, le, lnot, lor, lt, ne, to_str


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
            return ne(a, b)
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


def formula_to_cond(f: Formula) -> Cond:
    """A formula as a source condition: the formula printer's text,
    parsed as a condition.

    Divisibility atoms, which elimination introduces, have no source
    syntax, so they fail to parse and raise BridgeError; callers fall
    back to the native formula printer.
    """
    text = to_str(f)
    try:
        return parse_condition(text)
    except ParseError as e:
        raise BridgeError(f"no source syntax for {text}: {e}") from e
