"""Concrete enumerating interpreter: the ground-truth oracle.

The interpreter executes programs over mathematical integers. `havoc`
branches over a finite value set, so a single initial state expands
into the full set of reachable final states; `enumerate_executions`
additionally enumerates every parameter valuation and every initial
array content within the given bounds. Assume-violations silently
drop a path; assertion failures and out-of-bounds accesses produce
distinguished error states that remain in the result set.

Execution runs from a work list of pending states rather than by
recursion, so a run may execute any number of statements without
growing the Python stack. States returned are canonical, hashable, and
totally ordered, so sets of outcomes compare across runs and
implementations. A shared step budget, one step per executed
statement, makes enumeration blow-ups an explicit error rather than a
hang; the total does not depend on the order of exploration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

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

OK = "ok"
ASSERT_FAILED = "assert-failed"
OUT_OF_BOUNDS = "out-of-bounds"

Arrays = dict[str, dict[tuple[int, ...], int]]


class EnumerationBudgetError(RuntimeError):
    pass


class _OutOfBounds(Exception):
    pass


@dataclass(frozen=True, order=True, slots=True)
class ConcreteState:
    """Final program state in canonical form."""

    status: str
    scalars: tuple[tuple[str, int], ...]
    arrays: tuple[tuple[str, tuple[tuple[tuple[int, ...], int], ...]], ...]

    @staticmethod
    def make(
        status: str,
        scalars: Mapping[str, int],
        arrays: Mapping[str, Mapping[tuple[int, ...], int]],
        pairs: dict | None = None,
    ) -> "ConcreteState":
        """The canonical state. States made with one `pairs` dict share
        their equal (name, value) and (index, value) pairs: the final
        states of one enumeration differ in a few values each."""
        if pairs is None:
            pairs = {}
        share = pairs.setdefault
        return ConcreteState(
            status,
            tuple([share(kv, kv) for kv in sorted(scalars.items())]),
            tuple(sorted((n, tuple([share(kv, kv) for kv in sorted(f.items())])) for n, f in arrays.items())),
        )

    def scalar_dict(self) -> dict[str, int]:
        return dict(self.scalars)

    def array_dict(self, name: str) -> dict[tuple[int, ...], int]:
        for n, f in self.arrays:
            if n == name:
                return dict(f)
        raise KeyError(name)

    def project(self, scalar_names: Sequence[str], array_names: Sequence[str] = ()) -> "ConcreteState":
        """Restriction to the given variables (drops temporaries)."""
        keep = set(scalar_names)
        akeep = set(array_names)
        return ConcreteState(
            self.status,
            tuple((n, v) for n, v in self.scalars if n in keep),
            tuple((n, f) for n, f in self.arrays if n in akeep),
        )


@dataclass(frozen=True)
class Bounds:
    """Finite ranges for the enumeration."""

    params: Mapping[str, Sequence[int]] = field(default_factory=dict)
    values: Sequence[int] = (0, 1, 2)
    max_steps: int = 1_000_000


def eval_expr(
    e: Expr,
    scalars: Mapping[str, int],
    arrays: Mapping[str, Mapping[tuple[int, ...], int]],
    olds: Mapping[str, Mapping[tuple[int, ...], int]] | None = None,
) -> int:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return scalars[e.name]
    if isinstance(e, Add):
        return eval_expr(e.left, scalars, arrays, olds) + eval_expr(e.right, scalars, arrays, olds)
    if isinstance(e, Sub):
        return eval_expr(e.left, scalars, arrays, olds) - eval_expr(e.right, scalars, arrays, olds)
    if isinstance(e, Mul):
        return e.factor * eval_expr(e.arg, scalars, arrays, olds)
    if isinstance(e, ArrRead):
        idx = tuple(eval_expr(i, scalars, arrays, olds) for i in e.index)
        table = (olds if e.initial and olds is not None else arrays)[e.array]
        if idx not in table:
            raise _OutOfBounds()
        return table[idx]
    raise TypeError(f"not an expression: {e!r}")


def eval_cond(
    c: Cond,
    scalars: Mapping[str, int],
    arrays: Mapping[str, Mapping[tuple[int, ...], int]],
    olds: Mapping[str, Mapping[tuple[int, ...], int]] | None = None,
) -> bool:
    if isinstance(c, BoolConst):
        return c.value
    if isinstance(c, Cmp):
        a = eval_expr(c.left, scalars, arrays, olds)
        b = eval_expr(c.right, scalars, arrays, olds)
        return {
            "==": a == b, "!=": a != b, "<": a < b,
            "<=": a <= b, ">": a > b, ">=": a >= b,
        }[c.op]
    if isinstance(c, CondAnd):
        return all(eval_cond(p, scalars, arrays, olds) for p in c.parts)
    if isinstance(c, CondOr):
        return any(eval_cond(p, scalars, arrays, olds) for p in c.parts)
    if isinstance(c, CondNot):
        return not eval_cond(c.arg, scalars, arrays, olds)
    raise TypeError(f"not a condition: {c!r}")


class _Runner:
    """Runs statements from a work list of (scalars, arrays, frame)
    items, so no Python stack grows with the length of a run. A frame
    is (stmts, index, outer frame): the position of the next statement
    in each enclosing block, innermost first, None past the outermost.
    A loop keeps its own position in the outer frame while its body
    runs, so finishing the body returns to the loop head."""

    def __init__(self, values: Sequence[int], budget: list[int]):
        self.values = tuple(values)
        self.budget = budget

    def spend(self) -> None:
        self.budget[0] -= 1
        if self.budget[0] < 0:
            raise EnumerationBudgetError("enumeration budget exceeded")

    def run(
        self, body: tuple[Stmt, ...], scalars: dict[str, int], arrays: Arrays
    ) -> Iterator[tuple[str, dict[str, int], Arrays]]:
        """Every final (status, scalars, arrays), one spend() per executed statement."""
        work = [(scalars, arrays, (body, 0, None))]
        while work:
            scalars, arrays, frame = work.pop()
            stmts, k, outer = frame
            if k == len(stmts):
                if outer is None:
                    yield OK, scalars, arrays
                else:
                    work.append((scalars, arrays, outer))
                continue
            s = stmts[k]
            self.spend()
            after = (stmts, k + 1, outer)
            try:
                if isinstance(s, Assign):
                    work.append(({**scalars, s.var: eval_expr(s.expr, scalars, arrays)}, arrays, after))
                elif isinstance(s, Havoc):
                    work.extend(({**scalars, s.var: v}, arrays, after) for v in self.values)
                elif isinstance(s, ArrWrite):
                    idx = tuple(eval_expr(i, scalars, arrays) for i in s.index)
                    val = eval_expr(s.value, scalars, arrays)
                    if idx not in arrays[s.array]:
                        raise _OutOfBounds()
                    work.append((scalars, {**arrays, s.array: {**arrays[s.array], idx: val}}, after))
                elif isinstance(s, (Assume, Assert)):
                    if eval_cond(s.cond, scalars, arrays):
                        work.append((scalars, arrays, after))
                    elif isinstance(s, Assert):
                        yield ASSERT_FAILED, scalars, arrays
                elif isinstance(s, If):
                    branch = s.then if eval_cond(s.cond, scalars, arrays) else s.els
                    work.append((scalars, arrays, (branch, 0, after)))
                elif isinstance(s, While):
                    if eval_cond(s.cond, scalars, arrays):
                        work.append((scalars, arrays, (s.body, 0, frame)))
                    else:
                        work.append((scalars, arrays, after))
                else:
                    raise TypeError(f"not a statement: {s!r}")
            except _OutOfBounds:
                yield OUT_OF_BOUNDS, scalars, arrays


def run_program(
    p: Program,
    scalars: Mapping[str, int],
    arrays: Mapping[str, Mapping[tuple[int, ...], int]],
    values: Sequence[int] = (0, 1, 2),
    max_steps: int = 1_000_000,
) -> tuple[ConcreteState, ...]:
    """All final states from one initial state (havoc branches over values)."""
    init_scalars = {n: 0 for n in p.locals}
    init_scalars.update(scalars)
    init_arrays: Arrays = {n: dict(f) for n, f in arrays.items()}
    runner = _Runner(values, [max_steps])
    pairs: dict = {}
    out = {ConcreteState.make(st, sc, ar, pairs) for st, sc, ar in runner.run(p.body, init_scalars, init_arrays)}
    return tuple(sorted(out))


def index_box(p: Program, params: Mapping[str, int]) -> dict[str, list[tuple[int, ...]]]:
    """Declared index tuples per array under a parameter valuation."""
    out: dict[str, list[tuple[int, ...]]] = {}
    for a in p.arrays:
        lens = [max(0, eval_expr(d, params, {})) for d in a.dims]
        out[a.name] = list(itertools.product(*[range(n) for n in lens]))
    return out


def enumerate_executions(p: Program, bounds: Bounds) -> tuple[ConcreteState, ...]:
    """The exact, deterministically ordered set of reachable final states.

    Parameters range over bounds.params; every array content over
    bounds.values per cell; havoc over bounds.values. Error states are
    included. Raises EnumerationBudgetError when the shared step budget
    is exhausted.
    """
    for n in p.params:
        if n not in bounds.params:
            raise ValueError(f"no bounds given for parameter {n}")
    budget = [bounds.max_steps]
    finals: set[ConcreteState] = set()
    pairs: dict = {}
    for pvals in itertools.product(*[bounds.params[n] for n in p.params]):
        penv = dict(zip(p.params, pvals))
        box = index_box(p, penv)
        per_array = []
        for a in p.arrays:
            cells = box[a.name]
            per_array.append(
                [dict(zip(cells, vals)) for vals in itertools.product(bounds.values, repeat=len(cells))]
            )
        for contents in itertools.product(*per_array):
            arrays = {a.name: contents[i] for i, a in enumerate(p.arrays)}
            scalars = {**{n: 0 for n in p.locals}, **penv}
            runner = _Runner(bounds.values, budget)
            for st, sc, ar in runner.run(p.body, scalars, arrays):
                finals.add(ConcreteState.make(st, sc, ar, pairs))
    return tuple(sorted(finals))
