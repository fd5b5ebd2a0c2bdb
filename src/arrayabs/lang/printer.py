"""Render programs back to source.

`to_source` is the exact inverse of the parser up to layout: parsing
its output yields a structurally equal AST.
"""

from __future__ import annotations

from .ast import (
    Add,
    ArrRead,
    ArrWrite,
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
    Stmt,
    Sub,
    Var,
    While,
)


def expr_str(e: Expr, prec: int = 0) -> str:
    # prec 0: sum position, 1: right of +/-, 2: factor position
    if isinstance(e, Num):
        s = str(e.value)
        return f"({s})" if e.value < 0 and prec >= 1 else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, ArrRead):
        idx = "".join(f"[{expr_str(i)}]" for i in e.index)
        core = f"{e.array}{idx}"
        return f"old({core})" if e.initial else core
    if isinstance(e, Add):
        s = f"{expr_str(e.left)} + {expr_str(e.right, 1)}"
        return f"({s})" if prec >= 1 else s
    if isinstance(e, Sub):
        s = f"{expr_str(e.left)} - {expr_str(e.right, 1)}"
        return f"({s})" if prec >= 1 else s
    if isinstance(e, Mul):
        if e.factor == -1:
            s = f"-{expr_str(e.arg, 2)}"
            return f"({s})" if prec >= 1 else s
        s = f"{expr_str(Num(e.factor), 1)}*{expr_str(e.arg, 2)}"
        return f"({s})" if prec >= 2 else s
    raise TypeError(f"not an expression: {e!r}")


def cond_str(c: Cond, prec: int = 0) -> str:
    # prec 0: top, 1: inside ||, 2: inside &&, 3: under !
    if isinstance(c, BoolConst):
        return "true" if c.value else "false"
    if isinstance(c, Cmp):
        s = f"{expr_str(c.left)} {c.op} {expr_str(c.right)}"
        return f"({s})" if prec >= 3 else s
    if isinstance(c, CondAnd):
        s = " && ".join(cond_str(p, 2) for p in c.parts)
        return f"({s})" if prec > 1 else s
    if isinstance(c, CondOr):
        if len(c.parts) == 2 and isinstance(c.parts[0], CondNot):
            # resugar the parsed form of an implication
            s = f"{cond_str(c.parts[0].arg, 1)} ==> {cond_str(c.parts[1])}"
        else:
            s = " || ".join(cond_str(p, 1) for p in c.parts)
        return f"({s})" if prec > 0 else s
    if isinstance(c, CondNot):
        return "!" + cond_str(c.arg, 3)
    raise TypeError(f"not a condition: {c!r}")


def _stmt_lines(s: Stmt, ind: str) -> list[str]:
    if isinstance(s, Assign):
        return [f"{ind}{s.var} = {expr_str(s.expr)};"]
    if isinstance(s, Havoc):
        return [f"{ind}havoc {s.var};"]
    if isinstance(s, ArrWrite):
        idx = "".join(f"[{expr_str(i)}]" for i in s.index)
        return [f"{ind}{s.array}{idx} = {expr_str(s.value)};"]
    if isinstance(s, Assume):
        return [f"{ind}assume({cond_str(s.cond)});"]
    if isinstance(s, Assert):
        return [f"{ind}assert({cond_str(s.cond)});"]
    if isinstance(s, If):
        out = [f"{ind}if ({cond_str(s.cond)}) {{"]
        for t in s.then:
            out.extend(_stmt_lines(t, ind + "  "))
        if s.els:
            out.append(f"{ind}}} else {{")
            for t in s.els:
                out.extend(_stmt_lines(t, ind + "  "))
        out.append(f"{ind}}}")
        return out
    if isinstance(s, While):
        out = [f"{ind}while ({cond_str(s.cond)}) {{"]
        for t in s.body:
            out.extend(_stmt_lines(t, ind + "  "))
        out.append(f"{ind}}}")
        return out
    raise TypeError(f"not a statement: {s!r}")


def to_source(p: Program) -> str:
    params = ", ".join(f"{n}: int" for n in p.params)
    lines = [f"proc {p.name}({params}) {{"]
    for a in p.arrays:
        dims = "".join(f"[{expr_str(d)}]" for d in a.dims)
        lines.append(f"  array {a.name}{dims}: {a.elem};")
    for v in p.locals:
        lines.append(f"  var {v}: int;")
    for s in p.body:
        lines.extend(_stmt_lines(s, "  "))
    lines.append("}")
    if p.target is not None:
        quant = f"forall {', '.join(p.target.indices)}: " if p.target.indices else ""
        lines.append(f"ensures {quant}{cond_str(p.target.cond)};")
    return "\n".join(lines) + "\n"
