"""Hoist array accesses into elementary statements.

After this pass every array access is either `r = f[i, ...]` or
`f[i, ...] = r` where all indices are plain variables and the value is
a variable or literal. Reads buried in expressions or conditions move
into fresh temporaries; a while-condition's reads are re-evaluated at
the end of each iteration, preserving the original semantics exactly.
Programs that are already in this form come back unchanged.

`&&` and `||` stop at the first operand that decides them, so a read
after the first operand may not run, and hoisting it in front of the
statement could read out of bounds where the program does not: in
`i < n && t[i] == 0`, `t[n]`. Such a condition is computed into a
fresh 0/1 temporary instead, under `if`s on the operands before each
read, and the statement tests the temporary. A condition whose reads
all run, such as one that reads only in its first operand, is hoisted
as it stands.
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
    cond_reads,
)


class _Decomposer:
    def __init__(self, used: set[str]):
        self.used = used
        self.counter = 0
        self.new_locals: list[str] = []

    def fresh(self) -> str:
        while True:
            name = f"tmp{self.counter}"
            self.counter += 1
            if name not in self.used:
                self.used.add(name)
                self.new_locals.append(name)
                return name

    def index_var(self, e: Expr, out: list[Stmt], line: int) -> Var:
        e = self.expr(e, out, line)
        if isinstance(e, Var):
            return e
        v = self.fresh()
        out.append(Assign(v, e, line=line))
        return Var(v)

    def expr(self, e: Expr, out: list[Stmt], line: int) -> Expr:
        """Read-free copy of e; hoisted statements appended to out."""
        if isinstance(e, (Num, Var)):
            return e
        if isinstance(e, Add):
            return Add(self.expr(e.left, out, line), self.expr(e.right, out, line))
        if isinstance(e, Sub):
            return Sub(self.expr(e.left, out, line), self.expr(e.right, out, line))
        if isinstance(e, Mul):
            return Mul(e.factor, self.expr(e.arg, out, line))
        if isinstance(e, ArrRead):
            idx = tuple(self.index_var(i, out, line) for i in e.index)
            v = self.fresh()
            out.append(Assign(v, ArrRead(e.array, idx), line=line))
            return Var(v)
        raise TypeError(f"not an expression: {e!r}")

    def cond(self, c: Cond, out: list[Stmt], line: int) -> Cond:
        if isinstance(c, BoolConst):
            return c
        if isinstance(c, Cmp):
            return Cmp(c.op, self.expr(c.left, out, line), self.expr(c.right, out, line))
        if isinstance(c, (CondAnd, CondOr)):
            if not any(list(cond_reads(p)) for p in c.parts[1:]):
                return type(c)(tuple(self.cond(p, out, line) for p in c.parts))
            # v = 1 when c holds; each operand is evaluated, its reads
            # included, only where the ones before it did not decide c
            v, conj = self.fresh(), isinstance(c, CondAnd)
            parts = []
            for p in c.parts:
                pre: list[Stmt] = []
                parts.append((pre, self.cond(p, pre, line)))
            inner: list[Stmt] = [Assign(v, Num(int(conj)), line=line)]
            for pre, q in reversed(parts):
                rest = tuple(inner)
                inner = pre + [If(q, rest, line=line) if conj else If(q, (), rest, line=line)]
            out.append(Assign(v, Num(int(not conj)), line=line))
            out.extend(inner)
            return Cmp("==", Var(v), Num(1))
        if isinstance(c, CondNot):
            return CondNot(self.cond(c.arg, out, line))
        raise TypeError(f"not a condition: {c!r}")

    def stmt(self, s: Stmt) -> list[Stmt]:
        out: list[Stmt] = []
        if isinstance(s, Assign):
            if isinstance(s.expr, ArrRead):
                # keep the read in place; only indices may need hoisting
                idx = tuple(self.index_var(i, out, s.line) for i in s.expr.index)
                out.append(Assign(s.var, ArrRead(s.expr.array, idx), line=s.line))
            else:
                e = self.expr(s.expr, out, s.line)
                out.append(Assign(s.var, e, line=s.line))
        elif isinstance(s, Havoc):
            out.append(s)
        elif isinstance(s, ArrWrite):
            idx = tuple(self.index_var(i, out, s.line) for i in s.index)
            val = self.expr(s.value, out, s.line)
            if not isinstance(val, (Var, Num)):
                v = self.fresh()
                out.append(Assign(v, val, line=s.line))
                val = Var(v)
            out.append(ArrWrite(s.array, idx, val, line=s.line))
        elif isinstance(s, Assume):
            c = self.cond(s.cond, out, s.line)
            out.append(Assume(c, line=s.line))
        elif isinstance(s, Assert):
            c = self.cond(s.cond, out, s.line)
            out.append(Assert(c, line=s.line))
        elif isinstance(s, If):
            c = self.cond(s.cond, out, s.line)
            out.append(If(c, self.block(s.then), self.block(s.els), line=s.line))
        elif isinstance(s, While):
            pre: list[Stmt] = []
            c = self.cond(s.cond, pre, s.line)
            # reads feeding the condition are refreshed at the end of
            # each iteration, mirroring re-evaluation of the condition
            body = self.block(s.body) + tuple(pre)
            out.extend(pre)
            out.append(While(c, body, line=s.line))
        else:
            raise TypeError(f"not a statement: {s!r}")
        return out

    def block(self, stmts: tuple[Stmt, ...]) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        for s in stmts:
            out.extend(self.stmt(s))
        return tuple(out)


def decompose_accesses(p: Program) -> Program:
    used = set(p.params) | set(p.locals) | {a.name for a in p.arrays}
    if p.target is not None:
        used |= set(p.target.indices)
    d = _Decomposer(used)
    body = d.block(p.body)
    return Program(
        p.name,
        p.params,
        p.arrays,
        p.locals + tuple(d.new_locals),
        body,
        p.target,
    )
