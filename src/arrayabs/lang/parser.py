"""Parser for the mini array language.

    program := 'proc' NAME '(' params? ')' '{' item* '}' ensures?
    params  := NAME ':' 'int' (',' NAME ':' 'int')*
    item    := 'var' NAME (',' NAME)* ':' 'int' ';'
             | 'array' NAME ('[' expr ']')+ ':' ('int'|'color') ';'
             | stmt
    stmt    := NAME '=' expr ';'
             | NAME ('[' expr ']')+ '=' expr ';'
             | 'havoc' NAME ';'
             | 'assume' '(' cond ')' ';'  |  'assert' '(' cond ')' ';'
             | 'if' '(' cond ')' block ('else' block)?
             | 'while' '(' cond ')' block
    block   := '{' stmt* '}'
    ensures := 'ensures' ('forall' NAME (',' NAME)* ':')? cond ';'
    cond    := disj ('==>' cond)? ; disj/conj over '||'/'&&' ; '!' ; '(' cond ')'
             | expr ('=='|'!='|'<='|'<'|'>='|'>') expr | 'true' | 'false'
    expr    := linear arithmetic; products must have a literal factor;
               array reads `t[e]` and `old(t[e])`; `check_program`
               allows `old()` only inside ensures.

BLUE, WHITE, RED are builtin constants 0, 1, 2. The ensures clause
follows the closing brace so it can mention the declared arrays.

`cond` is also the one grammar for arithmetic formulas:
`lia.parse_formula` is `parse_condition` followed by
`bridge.cond_to_formula`. So formula text has no divisibility `m | t`,
no `forall`/`exists` prefix and no array reads, rejects chained
constant factors such as `2*3*x`, reads BLUE/WHITE/RED as 0/1/2, and
cannot use the keywords above as variable names.
"""

from __future__ import annotations

import re

from .ast import (
    Add,
    ArrRead,
    ArrWrite,
    ArrayDecl,
    Assert,
    Assign,
    Assume,
    BoolConst,
    Cmp,
    Cond,
    CondAnd,
    CondNot,
    CondOr,
    COLOR_VALUES,
    ELEM_SORTS,
    Expr,
    Havoc,
    If,
    Mul,
    Num,
    Program,
    Stmt,
    Sub,
    Target,
    Var,
    While,
)
from .checks import check_program

_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<comment>//[^\n]*)"
    r"|(?P<int>\d+)|(?P<id>[A-Za-z_][A-Za-z0-9_$'@]*)"
    r"|(?P<op>==>|==|!=|<=|>=|\|\||&&|[-+*<>!(){}\[\],:;=])|(?P<bad>\S)"
)

KEYWORDS = {
    "proc", "var", "array", "havoc", "assume", "assert", "if", "else",
    "while", "ensures", "forall", "old", "true", "false", "int", "color",
}


class ParseError(ValueError):
    pass


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, str, int, int]] = []
        line, col = 1, 1
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            val = m.group()
            if kind == "bad":
                raise ParseError(f"line {line}, col {col}: stray character {val!r}")
            if kind not in ("ws", "comment"):
                self.toks.append((kind, val, line, col))
            nl = val.count("\n")
            if nl:
                line += nl
                col = len(val) - val.rfind("\n")
            else:
                col += len(val)
        self.i = 0

    def peek(self) -> tuple[str, str] | None:
        if self.i < len(self.toks):
            k, v, _, _ = self.toks[self.i]
            return k, v
        return None

    def pos(self) -> str:
        if self.i < len(self.toks):
            _, _, line, col = self.toks[self.i]
            return f"line {line}, col {col}"
        return "end of input"

    def line(self) -> int:
        return self.toks[self.i][2] if self.i < len(self.toks) else 0

    def next(self) -> tuple[str, str]:
        p = self.peek()
        if p is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return p

    def accept(self, text: str) -> bool:
        """Take the next token if its text is `text`. No two token kinds
        share a text (operators are punctuation, keywords identifiers,
        integers digits), so the text alone decides."""
        p = self.peek()
        if p is not None and p[1] == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            raise ParseError(f"{self.pos()}: expected {text!r}, got {self.peek()!r}")

    def ident(self) -> str:
        kind, val = self.next()
        if kind != "id" or val in KEYWORDS:
            raise ParseError(f"{self.pos()}: expected identifier, got {val!r}")
        return val


def parse_program(text: str) -> Program:
    """Parse and statically check one procedure."""
    t = _Tokens(text)
    t.expect("proc")
    name = t.ident()
    t.expect("(")
    params: list[str] = []
    if not t.accept(")"):
        while True:
            params.append(t.ident())
            t.expect(":")
            t.expect("int")
            if not t.accept(","):
                break
        t.expect(")")
    t.expect("{")
    arrays: list[ArrayDecl] = []
    locals_: list[str] = []
    body: list[Stmt] = []
    while not t.accept("}"):
        if t.accept("var"):
            names = [t.ident()]
            while t.accept(","):
                names.append(t.ident())
            t.expect(":")
            t.expect("int")
            t.expect(";")
            locals_.extend(names)
        elif t.accept("array"):
            aname = t.ident()
            dims: list[Expr] = []
            while t.accept("["):
                dims.append(_expr(t))
                t.expect("]")
            if not dims:
                raise ParseError(f"{t.pos()}: array needs at least one dimension")
            t.expect(":")
            kind, sort = t.next()
            if sort not in ELEM_SORTS:
                raise ParseError(f"{t.pos()}: unknown element sort {sort!r}")
            t.expect(";")
            arrays.append(ArrayDecl(aname, tuple(dims), sort))
        else:
            body.append(_stmt(t))
    target = None
    if t.accept("ensures"):
        indices: list[str] = []
        if t.accept("forall"):
            indices.append(t.ident())
            while t.accept(","):
                indices.append(t.ident())
            t.expect(":")
        cond = _cond(t)
        t.expect(";")
        target = Target(tuple(indices), cond)
    if t.peek() is not None:
        raise ParseError(f"{t.pos()}: trailing input")
    p = Program(name, tuple(params), tuple(arrays), tuple(locals_), tuple(body), target)
    check_program(p)
    return p


def _block(t: _Tokens) -> tuple[Stmt, ...]:
    t.expect("{")
    out: list[Stmt] = []
    while not t.accept("}"):
        out.append(_stmt(t))
    return tuple(out)


def _stmt(t: _Tokens) -> Stmt:
    line = t.line()
    if t.accept("havoc"):
        v = t.ident()
        t.expect(";")
        return Havoc(v, line=line)
    if t.accept("assume"):
        t.expect("(")
        c = _cond(t)
        t.expect(")")
        t.expect(";")
        return Assume(c, line=line)
    if t.accept("assert"):
        t.expect("(")
        c = _cond(t)
        t.expect(")")
        t.expect(";")
        return Assert(c, line=line)
    if t.accept("if"):
        t.expect("(")
        c = _cond(t)
        t.expect(")")
        then = _block(t)
        els: tuple[Stmt, ...] = ()
        if t.accept("else"):
            els = _block(t)
        return If(c, then, els, line=line)
    if t.accept("while"):
        t.expect("(")
        c = _cond(t)
        t.expect(")")
        return While(c, _block(t), line=line)
    name = t.ident()
    if t.peek() == ("op", "["):
        idx: list[Expr] = []
        while t.accept("["):
            idx.append(_expr(t))
            t.expect("]")
        t.expect("=")
        val = _expr(t)
        t.expect(";")
        return ArrWrite(name, tuple(idx), val, line=line)
    t.expect("=")
    e = _expr(t)
    t.expect(";")
    return Assign(name, e, line=line)


def parse_condition(text: str) -> Cond:
    """Parse a standalone condition, without static checks.

    It may read arrays, through old() too; `check_program` is what
    confines old() to the ensures clause. `lia.parse_formula` rejects
    every array read with `BridgeError`.
    """
    t = _Tokens(text)
    c = _cond(t)
    if t.peek() is not None:
        raise ParseError(f"{t.pos()}: trailing input after condition")
    return c


# --------------------------------------------------------------- conditions


def _cond(t: _Tokens) -> Cond:
    left = _disj(t)
    if t.accept("==>"):
        right = _cond(t)
        return CondOr((CondNot(left), right))
    return left


def _disj(t: _Tokens) -> Cond:
    parts = [_conj(t)]
    while t.accept("||"):
        parts.append(_conj(t))
    return parts[0] if len(parts) == 1 else CondOr(tuple(parts))


def _conj(t: _Tokens) -> Cond:
    parts = [_cunary(t)]
    while t.accept("&&"):
        parts.append(_cunary(t))
    return parts[0] if len(parts) == 1 else CondAnd(tuple(parts))


def _cunary(t: _Tokens) -> Cond:
    if t.accept("!"):
        return CondNot(_cunary(t))
    if t.accept("true"):
        return BoolConst(True)
    if t.accept("false"):
        return BoolConst(False)
    if t.peek() == ("op", "("):
        save = t.i
        t.next()
        try:
            inner = _cond(t)
            t.expect(")")
        except ParseError:
            t.i = save
            return _cmp(t)
        nxt = t.peek()
        if nxt and nxt[0] == "op" and nxt[1] in ("==", "!=", "<=", "<", ">=", ">", "+", "-", "*"):
            t.i = save  # it was a parenthesized arithmetic operand
            return _cmp(t)
        return inner
    return _cmp(t)


def _cmp(t: _Tokens) -> Cond:
    left = _expr(t)
    p = t.peek()
    if p and p[0] == "op" and p[1] in ("==", "!=", "<=", "<", ">=", ">"):
        _, op = t.next()
        right = _expr(t)
        return Cmp(op, left, right)
    raise ParseError(f"{t.pos()}: expected comparison, got {p!r}")


# -------------------------------------------------------------- expressions


def _expr(t: _Tokens) -> Expr:
    acc = _term(t)
    while True:
        if t.accept("+"):
            acc = Add(acc, _term(t))
        elif t.accept("-"):
            acc = Sub(acc, _term(t))
        else:
            return acc


def _term(t: _Tokens) -> Expr:
    if t.accept("-"):
        inner = _term(t)
        if isinstance(inner, Num):
            return Num(-inner.value)
        return Mul(-1, inner)
    base = _prim(t)
    if t.accept("*"):
        other = _prim(t)
        if isinstance(base, Num):
            return _scale(base.value, other)
        if isinstance(other, Num):
            return _scale(other.value, base)
        raise ParseError(f"{t.pos()}: nonlinear product")
    return base


def _scale(k: int, e: Expr) -> Expr:
    if isinstance(e, Num):
        return Num(k * e.value)
    return Mul(k, e)


def _prim(t: _Tokens) -> Expr:
    kind, val = t.next()
    if kind == "int":
        return Num(int(val))
    if kind == "op" and val == "(":
        e = _expr(t)
        t.expect(")")
        return e
    if kind == "id":
        if val == "old":
            t.expect("(")
            arr = t.ident()
            idx = _indices(t)
            t.expect(")")
            return ArrRead(arr, idx, initial=True)
        if val in COLOR_VALUES:
            return Num(COLOR_VALUES[val])
        if val in KEYWORDS:
            raise ParseError(f"{t.pos()}: unexpected keyword {val!r} in expression")
        if t.peek() == ("op", "["):
            return ArrRead(val, _indices(t))
        return Var(val)
    raise ParseError(f"{t.pos()}: unexpected token {val!r}")


def _indices(t: _Tokens) -> tuple[Expr, ...]:
    idx: list[Expr] = []
    while t.accept("["):
        idx.append(_expr(t))
        t.expect("]")
    if not idx:
        raise ParseError(f"{t.pos()}: expected array index")
    return tuple(idx)
