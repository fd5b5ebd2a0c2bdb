"""Parser for the shared condition and formula syntax.

Grammar (quantifiers bind to the end of the enclosing scope):

    formula := 'forall' ids ':' formula | 'exists' ids ':' formula | imp
    imp     := disj ('==>' formula)?
    disj    := conj ('||' conj)*
    conj    := unary ('&&' unary)*
    unary   := '!' unary | 'true' | 'false' | '(' formula ')' | compare
    compare := sum ('=='|'!='|'<='|'<'|'>='|'>') sum | INT '|' sum
    sum     := prod (('+'|'-') prod)*
    prod    := INT '*' atom | atom ('*' INT)? | '-' prod
    atom    := INT | IDENT | '(' sum ')'

Only linear products (constant times variable) are accepted. `m | t`
is divisibility. Every variable is an integer, so a bare identifier in
formula position is an error. Identifiers may contain `$`, `'`, `@`
after the first character so generated names round trip.
"""

from __future__ import annotations

import re

from .formula import Formula, Lin, dvd, eq, exists, forall, ge0, land, lnot, lor, ne

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<id>[A-Za-z_][A-Za-z0-9_$'@]*)"
    r"|(?P<op>==>|==|!=|<=|>=|\|\||&&|[-+*<>!(),:|])|(?P<bad>\S))"
)

KEYWORDS = {"forall", "exists", "true", "false"}


class ParseError(ValueError):
    pass


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        for m in _TOKEN.finditer(text):
            if m.group("bad"):
                raise ParseError(f"bad character {m.group('bad')!r} at offset {m.start('bad')}")
            for kind in ("int", "id", "op"):
                if m.group(kind):
                    self.toks.append((kind, m.group(kind), m.start(kind)))
        self.i = 0

    def peek(self) -> tuple[str, str] | None:
        if self.i < len(self.toks):
            kind, val, _ = self.toks[self.i]
            return kind, val
        return None

    def next(self) -> tuple[str, str]:
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of formula")
        kind, val, _ = self.toks[self.i]
        self.i += 1
        return kind, val

    def accept(self, val: str) -> bool:
        p = self.peek()
        if p and p[1] == val and p[0] == "op":
            self.i += 1
            return True
        return False

    def accept_word(self, word: str) -> bool:
        p = self.peek()
        if p and p == ("id", word):
            self.i += 1
            return True
        return False

    def expect(self, val: str) -> None:
        kind, got = self.next()
        if got != val:
            raise ParseError(f"expected {val!r}, got {got!r}")


def parse_formula(text: str) -> Formula:
    t = _Tokens(text)
    f = _formula(t)
    if t.peek() is not None:
        raise ParseError(f"trailing input at token {t.peek()!r}")
    return f


def _formula(t: _Tokens) -> Formula:
    for word, ctor in (("forall", forall), ("exists", exists)):
        if t.accept_word(word):
            names = [_ident(t)]
            while t.accept(","):
                names.append(_ident(t))
            t.expect(":")
            return ctor(names, _formula(t))
    return _imp(t)


def _ident(t: _Tokens) -> str:
    kind, val = t.next()
    if kind != "id" or val in KEYWORDS:
        raise ParseError(f"expected identifier, got {val!r}")
    return val


def _imp(t: _Tokens) -> Formula:
    left = _disj(t)
    if t.accept("==>"):
        right = _formula(t)  # right assoc; quantifiers allowed here
        return lor(lnot(left), right)
    return left


def _disj(t: _Tokens) -> Formula:
    parts = [_conj(t)]
    while t.accept("||"):
        parts.append(_conj(t))
    return lor(*parts)


def _conj(t: _Tokens) -> Formula:
    parts = [_unary(t)]
    while t.accept("&&"):
        parts.append(_unary(t))
    return land(*parts)


def _unary(t: _Tokens) -> Formula:
    if t.accept("!"):
        return lnot(_unary(t))
    p = t.peek()
    if p == ("id", "true"):
        t.next()
        from .formula import TRUE

        return TRUE
    if p == ("id", "false"):
        t.next()
        from .formula import FALSE

        return FALSE
    if p and p == ("op", "("):
        # parenthesized formula or parenthesized arithmetic; try formula first
        save = t.i
        t.next()
        try:
            inner = _formula(t)
            t.expect(")")
        except ParseError:
            t.i = save
            return _compare(t)
        # a comparison may still follow a parenthesized sum; only plain
        # formulas can be followed by boolean connectives or the end
        nxt = t.peek()
        if nxt and nxt[0] == "op" and nxt[1] in ("==", "!=", "<=", "<", ">=", ">", "+", "-", "*", "|"):
            t.i = save
            return _compare(t)
        return inner
    return _compare(t)


def _compare(t: _Tokens) -> Formula:
    left = _sum(t)
    p = t.peek()
    if p and p[0] == "op" and p[1] == "|":
        if not left.is_const():
            raise ParseError("divisibility modulus must be a constant")
        t.next()
        rhs = _sum(t)
        return dvd(left.const, rhs)
    if p and p[0] == "op" and p[1] in ("==", "!=", "<=", "<", ">=", ">"):
        _, op = t.next()
        right = _sum(t)
        if op == "==":
            return eq(left, right)
        if op == "!=":
            return ne(left, right)
        if op == "<=":
            return ge0(right - left)
        if op == "<":
            return ge0(right - left - 1)
        if op == ">=":
            return ge0(left - right)
        return ge0(left - right - 1)
    raise ParseError(f"expected comparison, got {p!r}")


def _sum(t: _Tokens) -> Lin:
    acc = _prod(t)
    while True:
        if t.accept("+"):
            acc = acc + _prod(t)
        elif t.accept("-"):
            acc = acc - _prod(t)
        else:
            return acc


def _prod(t: _Tokens) -> Lin:
    if t.accept("-"):
        return -_prod(t)
    kind, val = t.next()
    if kind == "int":
        base = Lin.of(int(val))
        if t.accept("*"):
            factor = _prod(t)
            return factor.scale(base.const)
        return base
    if kind == "id":
        if val in KEYWORDS:
            raise ParseError(f"unexpected keyword {val!r} in term")
        base = Lin.var(val)
        if t.accept("*"):
            kind2, val2 = t.next()
            if kind2 != "int":
                raise ParseError("nonlinear product")
            return base.scale(int(val2))
        return base
    if val == "(":
        inner = _sum(t)
        t.expect(")")
        if t.accept("*"):
            kind2, val2 = t.next()
            if kind2 != "int":
                raise ParseError("nonlinear product")
            return inner.scale(int(val2))
        return inner
    raise ParseError(f"unexpected token {val!r} in term")
