"""Rewrite an array program into a purely scalar one.

`transform_program` first decomposes the program's accesses, so every
access site is `r = f[i...]` or `f[i...] = r`. Each abstracted array f
gets k symbolic cells: per cell j a tuple of index parameters
f$j$x0.. (one per dimension) and a value variable f$j$v. A read
r=f[i] becomes a havoc of r followed by one guarded assume per cell; a
write f[i]=r updates every cell whose index matches. The prologue
havocs the cell values and pins the index parameters inside the array
bounds, adds the ordering chain and focus precondition when
configured, asserts nothing and reads nothing. Those ranges, the
ordering and the focus, as one formula, are the position universe that
lifting quantifies over. When the ensures clause reads an array
through old(), the prologue ends by copying each of its cells' values
into a snapshot variable f$j$init, which the program never writes
again.

Observer flags latch, at one access site each, whether their
predicate holds when the access executes; they start at 0 and nothing
in the program, not even a predicate, reads them, so the analysis can
partition on their values. The result is a plain Program (so the whole
lang toolbox applies), checked by `check_program`, which is where a
clash of generated, flag and program names shows. It comes wrapped
with the cell layout that lifting invariants and checking targets need.
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
)
from ..lang.checks import check_program
from ..lang.decompose import decompose_accesses
from ..lia import TRUE, Formula, land
from .config import IndexConfig, ObsFlag, TransformError


@dataclass(frozen=True)
class Cell:
    index: tuple[str, ...]
    value: str
    init: str | None = None  # snapshot of the entry value


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


def _index_guard(cell: Cell, index: tuple[Expr, ...]) -> Cond:
    eqs = tuple(Cmp("==", ie, Var(xv)) for ie, xv in zip(index, cell.index))
    return eqs[0] if len(eqs) == 1 else CondAnd(eqs)


def _latch(flag: ObsFlag) -> Stmt:
    return If(flag.pred, (Assign(flag.name, Num(1)),), (Assign(flag.name, Num(0)),))


class _Walker:
    """Emits the scalar body. Access sites are numbered in emission
    order. Each site's observer latches come first, then its bounds
    assert, then its cell statements: splitting the state before the
    guarded cell updates keeps each partition's branch decisions
    sharp."""

    def __init__(
        self,
        p: Program,
        cfg: IndexConfig,
        cells: Mapping[str, tuple[Cell, ...]],
        latches: Mapping[int, list[Stmt]],
    ):
        self.bounds_checks = cfg.bounds_checks
        self.dims = {a.name: a.dims for a in p.arrays}
        self.cells = cells
        self.latches = latches
        self.sites = 0

    def _site(self, array: str, index: tuple[Expr, ...], line: int, out: list[Stmt]) -> None:
        out.extend(self.latches.get(self.sites, ()))
        self.sites += 1
        if self.bounds_checks:
            parts = []
            for ie, dim in zip(index, self.dims[array]):
                parts.append(Cmp("<=", Num(0), ie))
                parts.append(Cmp("<", ie, dim))
            out.append(Assert(parts[0] if len(parts) == 1 else CondAnd(tuple(parts)), line=line))

    def _read(self, s: Assign, out: list[Stmt]) -> None:
        """r = f[i...]  ->  havoc r; one guarded assume per cell."""
        out.append(Havoc(s.var, line=s.line))
        for cell in self.cells.get(s.expr.array, ()):
            body = (Assume(Cmp("==", Var(s.var), Var(cell.value)), line=s.line),)
            out.append(If(_index_guard(cell, s.expr.index), body, line=s.line))

    def _write(self, s: ArrWrite, out: list[Stmt]) -> None:
        """f[i...] = r  ->  one guarded cell update per cell."""
        for cell in self.cells.get(s.array, ()):
            body = (Assign(cell.value, s.value, line=s.line),)
            out.append(If(_index_guard(cell, s.index), body, line=s.line))

    def block(self, stmts: tuple[Stmt, ...], out: list[Stmt]) -> None:
        for s in stmts:
            if isinstance(s, Assign) and isinstance(s.expr, ArrRead):
                self._site(s.expr.array, s.expr.index, s.line, out)
                self._read(s, out)
            elif isinstance(s, ArrWrite):
                self._site(s.array, s.index, s.line, out)
                self._write(s, out)
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
    """The scalar program of `p` under the cell layout `cfg`.

    `p` is any program that passes `check_program`. Its accesses are
    decomposed here (a decomposed program comes back unchanged), and
    the sites that observer flags name number the accesses of the
    decomposed program in emission order. Exactly the arrays that the
    ensures clause reads through old() get snapshot variables. Names
    are checked once, by `check_program` on the result: a flag or
    generated name that clashes with another name, or a flag predicate
    over an undeclared name, raises `CheckError`. The layout's own
    faults raise `TransformError`, and so does, once the names pass, a
    flag predicate that reads a flag.
    """
    p = decompose_accesses(p)
    declared_arrays = {a.name: a for a in p.arrays}
    unknown = sorted(set(cfg.arrays) - set(declared_arrays))
    if unknown:
        raise TransformError(f"config names unknown arrays: {', '.join(unknown)}")

    entry = {r.array for r in cond_reads(p.target.cond) if r.initial} if p.target else set()
    cells: dict[str, tuple[Cell, ...]] = {}
    for a in p.arrays:
        spec = cfg.arrays.get(a.name)
        if spec is None:
            continue
        if spec.ordered and len(a.dims) != 1:
            raise TransformError(f"ordered cells need a 1-dimensional array, {a.name} has {len(a.dims)}")
        cells[a.name] = tuple(
            Cell(
                tuple(f"{a.name}${j}$x{d}" for d in range(len(a.dims))),
                f"{a.name}${j}$v",
                f"{a.name}${j}$init" if a.name in entry else None,
            )
            for j in range(spec.count)
        )

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
    # matching indices force matching values (guard ==> equal, in the
    # form the parser gives an implication)
    for name, cs in cells.items():
        if cfg.arrays[name].ordered:
            continue
        for i, a in enumerate(cs):
            for b in cs[i + 1:]:
                guard = _index_guard(b, tuple(Var(n) for n in a.index))
                pro.append(Assume(CondOr((CondNot(guard), Cmp("==", Var(a.value), Var(b.value))))))
    if cfg.focus is not None:
        try:
            pro.append(Assume(formula_to_cond(cfg.focus)))
        except BridgeError as e:
            raise TransformError(f"focus has no source form: {e}") from e
    snapshots = [c for cs in cells.values() for c in cs if c.init]
    pro.extend(Assign(c.init, Var(c.value)) for c in snapshots)

    flags = cfg.observers.flags if cfg.observers is not None else ()
    names = tuple(f.name for f in flags)
    latches: dict[int, list[Stmt]] = {}
    for f in flags:
        latches.setdefault(f.site, []).append(_latch(f))
    pro.extend(Assign(n, Num(0)) for n in names)

    walker = _Walker(p, cfg, cells, latches)
    body: list[Stmt] = list(pro)
    walker.block(p.body, body)
    unknown = sorted(site for site in latches if not 0 <= site < walker.sites)
    if unknown:
        raise TransformError(f"observer targets unknown access {unknown[0]}")

    prog = Program(
        p.name,
        p.params + tuple(index_params),
        (),
        p.locals + tuple(c.value for cs in cells.values() for c in cs) + tuple(c.init for c in snapshots) + names,
        tuple(body),
    )
    check_program(prog)
    for f in flags:
        read = [v for v in cond_to_formula(f.pred).free_vars() if v in names]
        if read:
            raise TransformError(f"predicate of observer flag {f.name} reads the flag {read[0]}")
    return ScalarProgram(prog, p, cfg, cells, universe, names, target=p.target, prologue_len=len(pro))
