"""Mini imperative language: AST, parser, printer, checks, and a
concrete enumerating interpreter used as the ground-truth oracle."""

from .ast import (
    Add,
    ArrayDecl,
    ArrRead,
    Assert,
    Assign,
    Assume,
    BoolConst,
    Cmp,
    Cond,
    CondAnd,
    CondNot,
    CondOr,
    Expr,
    Havoc,
    If,
    Mul,
    Num,
    Program,
    ArrWrite,
    Stmt,
    Sub,
    Target,
    Var,
    While,
    COLOR_VALUES,
    cond_reads,
    expr_reads,
    walk_stmts,
)
from .parser import ParseError, parse_condition, parse_program
from .printer import to_source
from .checks import CheckError, check_program
from .decompose import decompose_accesses
from .interp import (
    Bounds,
    ConcreteState,
    EnumerationBudgetError,
    enumerate_executions,
    eval_cond,
    eval_expr,
    run_program,
)

__all__ = [name for name in dir() if not name.startswith("_")]
