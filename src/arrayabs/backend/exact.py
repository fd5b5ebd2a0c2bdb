"""Exact relational analysis of loop-free scalar programs.

The walker of `abstract.Interpreter` runs on a path set, `_Paths`. It
has no flags (a flag is an ordinary variable here), and a program with
any loop, reachable or not, is rejected before the walk. Each path
carries a constraint over input copies (bare names) and per-variable
current versions; assignments mint a new version and the dead one is
projected out at once, so path constraints stay small. Paths whose
constraints go unsatisfiable are pruned at every assume, and past
`PATH_CAP` paths after a branch merge the analysis gives up. The
disjunction of the finished path formulas, outputs renamed to primed
names, is the program's exact input/output relation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Iterator

from ..lang.ast import While, walk_stmts
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
from .abstract import AnalysisError, Interpreter


class ExactError(AnalysisError):
    pass


def primed(name: str) -> str:
    return name + "'"


# ----------------------------------------------------------------- analyze

PATH_CAP = 4096  # live paths past which the analysis gives up


@dataclass(frozen=True)
class _Path:
    f: Formula
    cur: dict[str, str]  # variable -> current version; never mutated

    def ground(self, g: Formula) -> Formula:
        env = {v: Lin.var(c) for v, c in self.cur.items() if c != v}
        return subst(g, env)


@dataclass(frozen=True)
class _Paths:
    """The live paths at a program point, in walk order."""

    paths: list[_Path]
    budget: Budget
    inputs: frozenset
    fresh: Iterator[int]  # version numbers, shared by every path set of a run

    def _path(self, f: Formula, cur: dict[str, str]) -> _Path:
        """The path with every dead version projected out of f."""
        keep = self.inputs | set(cur.values())
        if set(f.free_vars()) - keep:
            f = simplify(project(f, keep, self.budget))
        return _Path(f, cur)

    def _version(self, var: str) -> str:
        return f"{var}#{next(self.fresh)}"

    def is_empty(self) -> bool:
        return not self.paths

    @staticmethod
    def guard(g: Formula) -> tuple[Formula, Formula]:
        return g, lnot(g)

    def assign(self, var: str, lin: Lin) -> "_Paths":
        out = []
        for p in self.paths:
            val = lin.subst({v: Lin.var(p.cur[v]) for v in lin.vars()})
            nxt = self._version(var)
            out.append(self._path(land(p.f, eq(Lin.var(nxt), val)), {**p.cur, var: nxt}))
        return replace(self, paths=out)

    def forget(self, var: str) -> "_Paths":
        return replace(self, paths=[self._path(p.f, {**p.cur, var: self._version(var)}) for p in self.paths])

    def assume(self, g: Formula) -> "_Paths":
        out = []
        for p in self.paths:
            f = simplify(land(p.f, p.ground(g)))
            if f.kind != "false" and is_sat(f, self.budget) is not None:
                out.append(_Path(f, p.cur))
        return replace(self, paths=out)

    def entails(self, g: Formula) -> bool:
        # every path is checked, with no early exit, so the budget an
        # assert costs does not depend on where a failing path sits
        failing = [is_sat(land(p.f, lnot(p.ground(g))), self.budget) is not None for p in self.paths]
        return not any(failing)

    def join(self, other: "_Paths") -> "_Paths":
        return replace(self, paths=self.paths + other.paths)

    def bounded(self) -> "_Paths":
        if len(self.paths) > PATH_CAP:
            raise ExactError(f"path count {len(self.paths)} exceeds cap {PATH_CAP}")
        return self


@dataclass
class ExactResult:
    relation: Formula  # over inputs (bare) and outputs (primed)
    summaries: tuple[Formula, ...]  # one per surviving path; lor = relation
    asserts: tuple[tuple[int, bool], ...]  # (line, proven on every path), program order


def analyze_loopfree_exact(sp, budget: Budget | None = None) -> ExactResult:
    """Exact input/output relation of a transformed loop-free program.

    Scalars appear under their own names for input values and primed
    (trailing apostrophe) for output values. Raises ExactError when the
    program has a loop or the path cap is exceeded, AnalysisError when
    a statement does not translate, BudgetError past the work cap.
    """
    prog = sp.program
    for s in walk_stmts(prog.body):
        if isinstance(s, While):
            raise ExactError(f"line {s.line}: loop reached the exact analysis (loop-free programs only)")
    budget = budget or Budget()
    scalars = prog.scalars()
    start = land(*(eq(Lin.var(v), Lin.of(0)) for v in prog.locals))
    interp = Interpreter(scalars)
    entry = _Paths([_Path(start, {v: v for v in scalars})], budget, frozenset(scalars), itertools.count(1))
    paths = interp.block(prog.body, entry, True).paths
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
        asserts=tuple((a.line, a.proven) for a in interp.asserts),
    )
