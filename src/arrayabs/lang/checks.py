"""Static well-formedness checks for programs.

Each layer that mints names keeps them apart from declared ones:

- the transform: cells and snapshots with `$` (`t$0$x0`, `t$0$v`,
  `t$0$init`); a declared name equal to one fails `check_program` on
  the transformed program as a duplicate;
- access decomposition: temporaries `tmpN`, skipping declared names;
- the target check: `@`, clause index `k` as `k@` and array reads as
  symbols such as `t@final0`;
- the exact analysis: `'` and `#`, `x'` the output value of `x` and
  `x#3` one of its versions on a path.

`@` and `'` are reserved: `check_program` rejects a declared name or
ensures index that holds one. The tokenizer reads no `#`.
"""

from __future__ import annotations

from .ast import (
    ArrRead,
    ArrWrite,
    Assert,
    Assign,
    Assume,
    COLOR_VALUES,
    Cmp,
    Cond,
    CondAnd,
    CondNot,
    CondOr,
    ELEM_SORTS,
    Expr,
    Add,
    Sub,
    Mul,
    Num,
    Var,
    Havoc,
    If,
    Program,
    While,
    walk_stmts,
)


class CheckError(ValueError):
    pass


RESERVED = "@'"  # characters of generated names only (module docstring)


def check_program(p: Program) -> None:
    """Raise CheckError on the first well-formedness violation.

    Declarations must be unique, scalar and array namespaces disjoint,
    every use declared, access arity must match the declared dimension,
    parameters are immutable, and dimension lengths are parameters or
    literals. `old()` reads may appear only in the ensures clause. No
    declared name or ensures index holds a `RESERVED` character.
    """
    scalars = list(p.params) + list(p.locals)
    arrays = {a.name: a for a in p.arrays}
    indices = p.target.indices if p.target is not None else ()
    for n in scalars + list(arrays) + list(indices):
        if any(ch in n for ch in RESERVED):
            raise CheckError(f"{n}: '@' and \"'\" are reserved for generated names")
    seen: set[str] = set()
    for n in scalars + list(arrays):
        if n in COLOR_VALUES:
            raise CheckError(f"{n} is a builtin constant, not declarable")
        if n in seen:
            raise CheckError(f"duplicate declaration of {n}")
        seen.add(n)
    scalar_set = set(scalars)
    for a in p.arrays:
        if a.elem not in ELEM_SORTS:
            raise CheckError(f"array {a.name}: unknown element sort {a.elem!r}")
        for d in a.dims:
            if isinstance(d, Num):
                continue
            if isinstance(d, Var) and d.name in p.params:
                continue
            raise CheckError(f"array {a.name}: dimension must be a parameter or literal")

    def expr(e: Expr, bound: set[str], ensures: bool) -> None:
        if isinstance(e, Num):
            return
        if isinstance(e, Var):
            if e.name not in scalar_set and e.name not in bound:
                kind = "array" if e.name in arrays else "undeclared"
                raise CheckError(f"{kind} identifier {e.name} used as a scalar")
            return
        if isinstance(e, (Add, Sub)):
            expr(e.left, bound, ensures)
            expr(e.right, bound, ensures)
            return
        if isinstance(e, Mul):
            expr(e.arg, bound, ensures)
            return
        if isinstance(e, ArrRead):
            if e.array not in arrays:
                raise CheckError(f"undeclared array {e.array}")
            if len(e.index) != len(arrays[e.array].dims):
                raise CheckError(
                    f"array {e.array} has {len(arrays[e.array].dims)} dimensions, "
                    f"indexed with {len(e.index)}"
                )
            if e.initial and not ensures:
                raise CheckError("old() is only allowed in ensures")
            for i in e.index:
                expr(i, bound, ensures)
            return
        raise CheckError(f"unknown expression node {type(e).__name__}")

    def cond(c: Cond, bound: set[str], ensures: bool) -> None:
        if isinstance(c, Cmp):
            expr(c.left, bound, ensures)
            expr(c.right, bound, ensures)
        elif isinstance(c, (CondAnd, CondOr)):
            for part in c.parts:
                cond(part, bound, ensures)
        elif isinstance(c, CondNot):
            cond(c.arg, bound, ensures)

    def lhs_scalar(name: str) -> None:
        if name in p.params:
            raise CheckError(f"parameter {name} is immutable")
        if name not in scalar_set:
            kind = "array" if name in arrays else "undeclared"
            raise CheckError(f"{kind} identifier {name} used as assignment target")

    for s in walk_stmts(p.body):
        if isinstance(s, Assign):
            lhs_scalar(s.var)
            expr(s.expr, set(), False)
        elif isinstance(s, Havoc):
            lhs_scalar(s.var)
        elif isinstance(s, ArrWrite):
            if s.array not in arrays:
                raise CheckError(f"undeclared array {s.array}")
            if len(s.index) != len(arrays[s.array].dims):
                raise CheckError(
                    f"array {s.array} has {len(arrays[s.array].dims)} dimensions, "
                    f"indexed with {len(s.index)}"
                )
            for i in s.index:
                expr(i, set(), False)
            expr(s.value, set(), False)
        elif isinstance(s, (If, While)):
            cond(s.cond, set(), False)
        elif isinstance(s, (Assume, Assert)):
            cond(s.cond, set(), False)
        else:
            raise CheckError(f"unknown statement node {type(s).__name__}")

    if p.target is not None:
        bound = set(p.target.indices)
        for k in p.target.indices:
            if k in scalar_set or k in arrays:
                raise CheckError(f"ensures index {k} shadows a declaration")
        cond(p.target.cond, bound, True)
