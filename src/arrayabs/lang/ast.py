"""AST for the mini array language.

Programs are procedures over unbounded mathematical integers with
integer parameters, scalar locals, and declared arrays of one or more
dimensions. The only nondeterminism is `havoc x;`. Conditions are
boolean combinations of linear comparisons; array reads may appear in
expressions and conditions until `decompose_accesses` hoists them into
elementary statements.

All nodes are frozen dataclasses. Source line numbers live in a
`line` field that is excluded from equality, so structural comparison
ignores layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


# enum element sort sugar: colors are plain integers
COLOR_VALUES = {"BLUE": 0, "WHITE": 1, "RED": 2}
ELEM_SORTS = ("int", "color")


# ------------------------------------------------------------ expressions


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: int


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    factor: int
    arg: Expr


@dataclass(frozen=True)
class ArrRead(Expr):
    array: str
    index: tuple[Expr, ...]
    initial: bool = False  # old(t[e]): value before the procedure ran; ensures only


# ------------------------------------------------------------- conditions


@dataclass(frozen=True)
class Cond:
    pass


@dataclass(frozen=True)
class BoolConst(Cond):
    value: bool


@dataclass(frozen=True)
class Cmp(Cond):
    op: str  # == != < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class CondAnd(Cond):
    parts: tuple[Cond, ...]


@dataclass(frozen=True)
class CondOr(Cond):
    parts: tuple[Cond, ...]


@dataclass(frozen=True)
class CondNot(Cond):
    arg: Cond


# ------------------------------------------------------------- statements


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    var: str
    expr: Expr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Havoc(Stmt):
    var: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ArrWrite(Stmt):
    array: str
    index: tuple[Expr, ...]
    value: Expr
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class If(Stmt):
    cond: Cond
    then: tuple[Stmt, ...]
    els: tuple[Stmt, ...] = ()
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class While(Stmt):
    cond: Cond
    body: tuple[Stmt, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Assume(Stmt):
    cond: Cond
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Assert(Stmt):
    cond: Cond
    line: int = field(default=0, compare=False)


# ---------------------------------------------------------------- program


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    dims: tuple[Expr, ...]  # each a parameter or literal
    elem: str = "int"


@dataclass(frozen=True)
class Target:
    """`ensures forall k...: cond` clause; indices may be empty."""

    indices: tuple[str, ...]
    cond: Cond


@dataclass(frozen=True)
class Program:
    name: str
    params: tuple[str, ...]
    arrays: tuple[ArrayDecl, ...]
    locals: tuple[str, ...]
    body: tuple[Stmt, ...]
    target: Target | None = None

    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(name)

    def scalars(self) -> tuple[str, ...]:
        return self.params + self.locals


# ----------------------------------------------------------------- helpers


def walk_stmts(body: tuple[Stmt, ...]) -> Iterator[Stmt]:
    """All statements in the tree, preorder."""
    for s in body:
        yield s
        if isinstance(s, If):
            yield from walk_stmts(s.then)
            yield from walk_stmts(s.els)
        elif isinstance(s, While):
            yield from walk_stmts(s.body)


def expr_reads(e: Expr) -> Iterator[ArrRead]:
    if isinstance(e, ArrRead):
        for idx in e.index:
            yield from expr_reads(idx)
        yield e
    elif isinstance(e, (Add, Sub)):
        yield from expr_reads(e.left)
        yield from expr_reads(e.right)
    elif isinstance(e, Mul):
        yield from expr_reads(e.arg)


def cond_reads(c: Cond) -> Iterator[ArrRead]:
    if isinstance(c, Cmp):
        yield from expr_reads(c.left)
        yield from expr_reads(c.right)
    elif isinstance(c, (CondAnd, CondOr)):
        for p in c.parts:
            yield from cond_reads(p)
    elif isinstance(c, CondNot):
        yield from cond_reads(c.arg)
