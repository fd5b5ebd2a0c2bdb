"""Rewrite an array program into a purely scalar one.

Each abstracted array f gets k symbolic cells: per cell j a tuple of
index parameters f$j$x0.. (one per dimension) and a value variable
f$j$v. A read r=f[i] becomes a havoc of r followed by one guarded
assume per cell; a write f[i]=r updates every cell whose index
matches. The prologue havocs the cell values and pins the index
parameters inside the array bounds, adds the ordering chain and focus
precondition when configured, asserts nothing and reads nothing. Those
ranges, the ordering and the focus, as one formula, are the position
universe that lifting quantifies over.

Observer flags latch, at one access site each, whether their
predicate holds when the access executes; they start at 0 and nothing
in the program reads them, so the analysis can partition on their
values. The result is a plain Program (so the whole lang toolbox
applies) wrapped with the cell layout that lifting invariants and
checking targets need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from ..bridge import BridgeError, cond_to_formula, formula_to_cond
from ..lang.ast import (
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
    Num,
    Program,
    Stmt,
    Target,
    Var,
    While,
    cond_reads,
    cond_vars,
    expr_reads,
)
from ..lang.checks import check_program
from ..lia import TRUE, Formula, land
from .config import ArrayCells, IndexConfig, ObsFlag, TransformError


def index_var(array: str, cell: int, dim: int) -> str:
    return f"{array}${cell}$x{dim}"


def value_var(array: str, cell: int) -> str:
    return f"{array}${cell}$v"


def init_var(array: str, cell: int) -> str:
    return f"{array}${cell}$init"


@dataclass(frozen=True)
class Cell:
    array: str
    pos: int
    index: tuple[str, ...]
    value: str
    init: str | None = None


def cells_for(array: str, dims: int, spec: ArrayCells) -> tuple[Cell, ...]:
    return tuple(
        Cell(
            array,
            j,
            tuple(index_var(array, j, d) for d in range(dims)),
            value_var(array, j),
            init_var(array, j) if spec.snapshot else None,
        )
        for j in range(spec.count)
    )


@dataclass(frozen=True)
class ScalarProgram:
    program: Program  # array-free
    source: Program  # the decomposed original
    cfg: IndexConfig
    cells: Mapping[str, tuple[Cell, ...]]
    universe: Formula  # admissible positions: ranges, ordering, focus
    flags: tuple[str, ...] = ()
    target: Target | None = None
    prologue_len: int = 0

    def all_cells(self) -> Iterator[Cell]:
        for cs in self.cells.values():
            yield from cs


def imp(a: Cond, b: Cond) -> Cond:
    """a ==> b in the form the parser produces."""
    return CondOr((CondNot(a), b))


def _index_guard(cell: Cell, index: tuple[Expr, ...]) -> Cond:
    eqs = tuple(Cmp("==", ie, Var(xv)) for ie, xv in zip(index, cell.index))
    return eqs[0] if len(eqs) == 1 else CondAnd(eqs)


def _cells(cfg: IndexConfig, array: str, dims: int) -> tuple[Cell, ...]:
    spec = cfg.arrays.get(array)
    if spec is None:
        return ()
    return cells_for(array, dims, spec)


def transform_read(stmt: Assign, cfg: IndexConfig) -> list[Stmt]:
    """r = f[i...]  ->  havoc r; one guarded assume per cell."""
    read = stmt.expr
    if not isinstance(read, ArrRead):
        raise TransformError("transform_read expects an elementary array read")
    out: list[Stmt] = [Havoc(stmt.var, line=stmt.line)]
    for cell in _cells(cfg, read.array, len(read.index)):
        guard = _index_guard(cell, read.index)
        body = (Assume(Cmp("==", Var(stmt.var), Var(cell.value)), line=stmt.line),)
        out.append(If(guard, body, line=stmt.line))
    return out


def transform_write(stmt: ArrWrite, cfg: IndexConfig) -> list[Stmt]:
    """f[i...] = r  ->  one guarded cell update per cell."""
    out: list[Stmt] = []
    for cell in _cells(cfg, stmt.array, len(stmt.index)):
        guard = _index_guard(cell, stmt.index)
        body = (Assign(cell.value, stmt.value, line=stmt.line),)
        out.append(If(guard, body, line=stmt.line))
    return out


def _check_decomposed(p: Program) -> None:
    from ..lang.ast import is_elementary_read, is_elementary_write, walk_stmts

    for s in walk_stmts(p.body):
        if isinstance(s, Assign):
            if isinstance(s.expr, ArrRead):
                if not is_elementary_read(s):
                    raise TransformError(f"line {s.line}: array read is not elementary")
            elif list(expr_reads(s.expr)):
                raise TransformError(f"line {s.line}: array read buried in expression")
        elif isinstance(s, ArrWrite):
            if not is_elementary_write(s):
                raise TransformError(f"line {s.line}: array write is not elementary")
        elif isinstance(s, (If, While, Assume, Assert)):
            if list(cond_reads(s.cond)):
                raise TransformError(f"line {s.line}: array read inside a condition")


def _latch(flag: ObsFlag) -> Stmt:
    if flag.pred == BoolConst(True):
        return Assign(flag.name, Num(1))
    if flag.pred == BoolConst(False):
        return Assign(flag.name, Num(0))
    return If(flag.pred, (Assign(flag.name, Num(1)),), (Assign(flag.name, Num(0)),))


class _Walker:
    """Emits the scalar body. Access sites are numbered in emission
    order. Each site's observer latches come first, then its bounds
    assert, then its cell statements: splitting the state before the
    guarded cell updates keeps each partition's branch decisions
    sharp."""

    def __init__(self, p: Program, cfg: IndexConfig, latches: Mapping[int, list[Stmt]]):
        self.cfg = cfg
        self.dims = {a.name: a.dims for a in p.arrays}
        self.latches = latches
        self.sites = 0

    def _site(self, array: str, index: tuple[Expr, ...], line: int, out: list[Stmt]) -> None:
        out.extend(self.latches.get(self.sites, ()))
        self.sites += 1
        if self.cfg.bounds_checks:
            parts = []
            for ie, dim in zip(index, self.dims[array]):
                parts.append(Cmp("<=", Num(0), ie))
                parts.append(Cmp("<", ie, dim))
            out.append(Assert(parts[0] if len(parts) == 1 else CondAnd(tuple(parts)), line=line))

    def block(self, stmts: tuple[Stmt, ...], out: list[Stmt]) -> None:
        for s in stmts:
            if isinstance(s, Assign) and isinstance(s.expr, ArrRead):
                self._site(s.expr.array, s.expr.index, s.line, out)
                out.extend(transform_read(s, self.cfg))
            elif isinstance(s, ArrWrite):
                self._site(s.array, s.index, s.line, out)
                out.extend(transform_write(s, self.cfg))
            elif isinstance(s, If):
                then: list[Stmt] = []
                self.block(s.then, then)
                els: list[Stmt] = []
                self.block(s.els, els)
                out.append(If(s.cond, tuple(then), tuple(els), line=s.line))
            elif isinstance(s, While):
                body: list[Stmt] = []
                self.block(s.body, body)
                out.append(While(s.cond, tuple(body), line=s.line))
            else:
                out.append(s)


def transform_program(p: Program, cfg: IndexConfig) -> ScalarProgram:
    _check_decomposed(p)
    declared_arrays = {a.name: a for a in p.arrays}
    unknown = sorted(set(cfg.arrays) - set(declared_arrays))
    if unknown:
        raise TransformError(f"config names unknown arrays: {', '.join(unknown)}")

    cells: dict[str, tuple[Cell, ...]] = {}
    for a in p.arrays:
        spec = cfg.arrays.get(a.name)
        if spec is None:
            continue
        if spec.ordered and len(a.dims) != 1:
            raise TransformError(f"ordered cells need a 1-dimensional array, {a.name} has {len(a.dims)}")
        cells[a.name] = cells_for(a.name, len(a.dims), spec)

    generated: list[str] = []
    for cs in cells.values():
        for c in cs:
            generated.extend(c.index)
            generated.append(c.value)
            if c.init:
                generated.append(c.init)
    declared = set(p.params) | set(p.locals) | set(declared_arrays)
    clash = sorted(set(generated) & declared)
    if clash:
        raise TransformError(f"generated names collide with program names: {', '.join(clash)}")

    index_params = [n for cs in cells.values() for c in cs for n in c.index]
    if cfg.focus is not None:
        allowed = set(p.params) | set(index_params)
        loose = sorted(set(cfg.focus.free_vars()) - allowed)
        if loose:
            raise TransformError(f"focus mentions non-index, non-parameter variables: {', '.join(loose)}")

    # the position universe: every index in range, ordered cells in order
    positions: list[Cond] = []
    for name, cs in cells.items():
        dims = declared_arrays[name].dims
        for c in cs:
            for xv, dim in zip(c.index, dims):
                positions.append(CondAnd((Cmp("<=", Num(0), Var(xv)), Cmp("<", Var(xv), dim))))
    for name, cs in cells.items():
        if cfg.arrays[name].ordered:
            for a, b in zip(cs, cs[1:]):
                positions.append(Cmp("<", Var(a.index[0]), Var(b.index[0])))
    universe = land(*(cond_to_formula(c) for c in positions), cfg.focus or TRUE)

    pro: list[Stmt] = []
    for cs in cells.values():
        for c in cs:
            pro.append(Havoc(c.value))
    pro.extend(Assume(c) for c in positions)
    # at entry every cell of an array describes the same contents:
    # matching indices force matching values
    for name, cs in cells.items():
        if cfg.arrays[name].ordered:
            continue
        for i, a in enumerate(cs):
            for b in cs[i + 1:]:
                guard = _index_guard(b, tuple(Var(n) for n in a.index))
                pro.append(Assume(imp(guard, Cmp("==", Var(a.value), Var(b.value)))))
    if cfg.focus is not None:
        try:
            pro.append(Assume(formula_to_cond(cfg.focus)))
        except BridgeError as e:
            raise TransformError(f"focus has no source form: {e}") from e
    for cs in cells.values():
        for c in cs:
            if c.init:
                pro.append(Assign(c.init, Var(c.value)))

    value_locals = [c.value for cs in cells.values() for c in cs]
    init_locals = [c.init for cs in cells.values() for c in cs if c.init]
    scalars = set(p.params) | set(index_params) | set(p.locals) | set(value_locals) | set(init_locals)
    flags = cfg.observers.flags if cfg.observers is not None else ()
    names = tuple(f.name for f in flags)
    if len(set(names)) != len(names):
        raise TransformError("duplicate observer flag names")
    clash = sorted(set(names) & scalars)
    if clash:
        raise TransformError(f"observer flags collide with program names: {', '.join(clash)}")
    latches: dict[int, list[Stmt]] = {}
    for f in flags:
        loose = sorted(set(cond_vars(f.pred)) - scalars)
        if loose:
            raise TransformError(f"observer predicate mentions unknown names: {', '.join(loose)}")
        latches.setdefault(f.site, []).append(_latch(f))
    pro.extend(Assign(n, Num(0)) for n in names)

    walker = _Walker(p, cfg, latches)
    body: list[Stmt] = list(pro)
    walker.block(p.body, body)
    unknown = sorted(site for site in latches if not 0 <= site < walker.sites)
    if unknown:
        raise TransformError(f"observer targets unknown access {unknown[0]}")

    prog = Program(
        p.name,
        p.params + tuple(index_params),
        (),
        p.locals + tuple(value_locals) + tuple(init_locals) + names,
        tuple(body),
    )
    check_program(prog)
    return ScalarProgram(prog, p, cfg, cells, universe, names, target=p.target, prologue_len=len(pro))
