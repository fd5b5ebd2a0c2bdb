"""Exact relational analysis of loop-free scalar programs.

The analyzer enumerates program paths. Each path carries a constraint
over input copies (bare names) and per-variable current versions;
assignments mint a new version and the dead one is projected out at
once, so path constraints stay small. Paths whose constraints go
unsatisfiable are pruned at every split. The disjunction of the
finished path formulas, outputs renamed to primed names, is the
program's exact input/output relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bridge import BridgeError, cond_to_formula, expr_to_lin
from ..lang.ast import (
    Assert,
    Assign,
    Assume,
    Havoc,
    If,
    Stmt,
    While,
    walk_stmts,
)
from ..lia import (
    Budget,
    Formula,
    Lin,
    eq,
    is_sat,
    land,
    lnot,
    lor,
    project,
    rename,
    simplify,
    subst,
)


class ExactError(ValueError):
    pass


def primed(name: str) -> str:
    return name + "'"


# ----------------------------------------------------------------- analyze

PATH_CAP = 4096  # live paths past which the analysis gives up


@dataclass
class _Path:
    f: Formula
    cur: dict[str, str]

    def ground(self, g: Formula) -> Formula:
        env = {v: Lin.var(c) for v, c in self.cur.items() if c != v}
        return subst(g, env)


@dataclass
class _Ctx:
    budget: Budget
    inputs: frozenset
    order: dict[int, int]  # statement id -> position in a walk of the program
    fresh: int = 0
    asserts: dict[tuple[int, int], bool] = field(default_factory=dict)  # (position, line)

    def version(self, var: str) -> str:
        self.fresh += 1
        return f"{var}#{self.fresh}"


def _cond_of(c) -> Formula:
    try:
        return cond_to_formula(c)
    except BridgeError as e:
        raise ExactError(f"condition not scalar: {e}") from e


def _shrink(p: _Path, ctx: _Ctx) -> _Path:
    keep = ctx.inputs | set(p.cur.values())
    if set(p.f.free_vars()) - keep:
        p.f = simplify(project(p.f, keep, ctx.budget))
    return p


def _alive(f: Formula, ctx: _Ctx) -> bool:
    if f.kind == "false":
        return False
    return is_sat(f, ctx.budget) is not None


def _stmt(paths: list[_Path], s: Stmt, ctx: _Ctx) -> list[_Path]:
    if isinstance(s, Assign):
        try:
            lin = expr_to_lin(s.expr)
        except BridgeError as e:
            raise ExactError(f"line {s.line}: {e}") from e
        for p in paths:
            val = lin.subst({v: Lin.var(p.cur[v]) for v in lin.vars()})
            nxt = ctx.version(s.var)
            p.f = land(p.f, eq(Lin.var(nxt), val))
            p.cur[s.var] = nxt
            _shrink(p, ctx)
        return paths
    if isinstance(s, Havoc):
        for p in paths:
            p.cur[s.var] = ctx.version(s.var)
            _shrink(p, ctx)
        return paths
    if isinstance(s, Assume):
        g = _cond_of(s.cond)
        out = []
        for p in paths:
            p.f = simplify(land(p.f, p.ground(g)))
            if _alive(p.f, ctx):
                out.append(p)
        return out
    if isinstance(s, Assert):
        g = _cond_of(s.cond)
        key = (ctx.order[id(s)], s.line)
        for p in paths:
            gg = p.ground(g)
            ok = is_sat(land(p.f, lnot(gg)), ctx.budget) is None
            ctx.asserts[key] = ctx.asserts.get(key, True) and ok
            p.f = simplify(land(p.f, gg))
        return [p for p in paths if _alive(p.f, ctx)]
    if isinstance(s, If):
        g = _cond_of(s.cond)
        into_then, into_els = [], []
        for p in paths:
            gg = p.ground(g)
            t = simplify(land(p.f, gg))
            e = simplify(land(p.f, lnot(gg)))
            if _alive(t, ctx):
                into_then.append(_Path(t, dict(p.cur)))
            if _alive(e, ctx):
                into_els.append(_Path(e, dict(p.cur)))
        out = _block(into_then, s.then, ctx) + _block(into_els, s.els, ctx)
        if len(out) > PATH_CAP:
            raise ExactError(f"path count {len(out)} exceeds cap {PATH_CAP}")
        return out
    if isinstance(s, While):
        raise ExactError(f"line {s.line}: loop reached the exact analysis (loop-free programs only)")
    raise ExactError(f"line {s.line}: array statement reached the exact analysis")


def _block(paths: list[_Path], stmts: tuple[Stmt, ...], ctx: _Ctx) -> list[_Path]:
    for s in stmts:
        if not paths:
            return paths
        paths = _stmt(paths, s, ctx)
    return paths


@dataclass
class ExactResult:
    relation: Formula  # over inputs (bare) and outputs (primed)
    summaries: tuple[Formula, ...]  # one per surviving path; lor = relation
    asserts: tuple[tuple[int, bool], ...]  # (line, proven on every path), program order


def analyze_loopfree_exact(sp, budget: Budget | None = None) -> ExactResult:
    """Exact input/output relation of a transformed loop-free program.

    Scalars appear under their own names for input values and primed
    (trailing apostrophe) for output values. Raises ExactError when a
    loop survives or the path cap is exceeded, BudgetError past the
    work cap.
    """
    prog = sp.program
    budget = budget or Budget()
    scalars = prog.scalars()
    order = {id(s): i for i, s in enumerate(walk_stmts(prog.body))}
    ctx = _Ctx(budget, frozenset(scalars), order)
    start = land(*(eq(Lin.var(v), Lin.of(0)) for v in prog.locals))
    paths = _block([_Path(start, {v: v for v in scalars})], prog.body, ctx)
    outs: list[Formula] = []
    for p_ in paths:
        env, frame = {}, []
        for v in scalars:
            if p_.cur[v] == v:  # never written: output equals input
                frame.append(eq(Lin.var(primed(v)), Lin.var(v)))
            else:
                env[p_.cur[v]] = primed(v)
        f = simplify(rename(land(p_.f, *frame), env))
        names = set(scalars) | {primed(v) for v in scalars}
        if set(f.free_vars()) - names:
            f = simplify(project(f, names, budget))
        outs.append(f)
    return ExactResult(
        relation=lor(*outs) if outs else lor(),
        summaries=tuple(outs),
        asserts=tuple((line, ok) for (_, line), ok in sorted(ctx.asserts.items())),
    )
