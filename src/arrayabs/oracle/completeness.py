"""Loop-free programs: does the cell abstraction lose anything?

With at least one cell per syntactic access, the transformed program's
final states, concretized over every index instantiation, project to
exactly the same scalar outcomes as the original program. This module
checks that equality by enumerating both sides on bounded domains, and
provides the random program generator the suite drives it with. The
abstract side is a set of (outcome, positions, values), a position
being (array, index point); each array's k-cell layout gives its
instantiations, and gamma reads candidate contents at them with the
`covers` test of `domains`. When the cell budget is below the access
count the inclusion can go strict; the checker reports which side has
surplus states.

Both sides draw havocs, initial contents and cell contents at entry
from `values`. A read of the transformed program, `havoc r` then
`assume(r == cell value)`, is the one exception: it ranges over
`values` and every value a write stores in some concrete run, since a
cell can hold a value written outside `values`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

from ..lang.ast import (
    Add,
    ArrayDecl,
    ArrRead,
    ArrWrite,
    Assign,
    Assume,
    Cmp,
    CondAnd,
    CondOr,
    Havoc,
    If,
    Num,
    Program,
    Stmt,
    Sub,
    Var,
    While,
    walk_stmts,
)
from ..lang.decompose import decompose_accesses
from ..lang.interp import Bounds, enumerate_executions
from ..transform import ArrayCells, IndexConfig, transform_program
from .domains import OracleError, covers, instantiations


@dataclass(frozen=True)
class CompletenessResult:
    equal: bool
    sound: bool  # concrete side contained in abstract side
    concrete_only: tuple
    abstract_only: tuple
    scalars: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.equal


def _within(x: str, values: tuple[int, ...]) -> Assume:
    return Assume(CondOr(tuple(Cmp("==", Var(x), Num(v)) for v in values)))


def _instrumented(body: tuple[Stmt, ...], values: tuple[int, ...], logs: list[str]) -> tuple[Stmt, ...]:
    """body with each havoc of x followed by assume(x in values), and
    each write's value first copied into a fresh local, added to logs."""
    out: list[Stmt] = []
    for s in body:
        if isinstance(s, If):
            s = If(s.cond, _instrumented(s.then, values, logs), _instrumented(s.els, values, logs), line=s.line)
        elif isinstance(s, ArrWrite):
            logs.append(f"write${len(logs)}")
            out.append(Assign(logs[-1], s.value))
        out.append(s)
        if isinstance(s, Havoc):
            out.append(_within(s.var, values))
    return tuple(out)


def check_completeness(
    p: Program,
    cfg: IndexConfig,
    *,
    values: tuple[int, ...] = (0, 1, 2),
    params: dict[str, tuple[int, ...]] | None = None,
    max_steps: int = 2_000_000,
) -> CompletenessResult:
    """Compare scalar outcome sets of p and of its transformation.

    Both sides run under the bounded enumerator: the concrete side
    over every initial array content, the transformed side over every
    admissible position tuple. Every configured array must be nonempty
    under every parameter valuation.
    """
    if any(isinstance(s, While) for s in walk_stmts(p.body)):
        raise OracleError("completeness check needs a loop-free program")
    params = params or {}
    for n in p.params:
        if n not in params:
            raise OracleError(f"no bounds for parameter {n}")

    bounds = Bounds(params=params, values=values, max_steps=max_steps)
    names = list(p.scalars())
    # decomposed first, so that a logged value reads no array
    logs: list[str] = []
    q = decompose_accesses(p)
    body = _instrumented(q.body, values, logs)
    q = replace(q, locals=q.locals + tuple(logs), body=body)
    concrete, stored = set(), set(values)
    for st in enumerate_executions(q, bounds):
        sc = st.scalar_dict()
        concrete.add((st.status, tuple(sc[n] for n in names)))
        stored.update(sc[w] for w in logs)

    # the reads range over every stored value; the cell contents at
    # entry, like the havocs of q, over `values` only
    sp = transform_program(q, cfg)
    pins = tuple(_within(c.value, values) for cs in sp.cells.values() for c in cs)
    k = sp.prologue_len
    prog = replace(sp.program, body=sp.program.body[:k] + pins + sp.program.body[k:])
    boxes: dict[str, list[tuple[int, ...]]] = {}
    index_bounds = dict(params)
    for name, spec in cfg.arrays.items():
        decl = p.array(name)
        lens = []
        for d in decl.dims:
            if isinstance(d, Num):
                lens.append(d.value)
            elif isinstance(d, Var):
                lens.append(max(params[d.name]))
            else:
                raise OracleError("dimensions must be literals or parameters")
        if any(l <= 0 for l in lens):
            raise OracleError(f"array {name} may be empty under the given bounds")
        boxes[name] = list(itertools.product(*[range(l) for l in lens]))
        for c in sp.cells[name]:
            for xv, l in zip(c.index, lens):
                index_bounds[xv] = tuple(range(l))

    abounds = Bounds(params=index_bounds, values=tuple(sorted(stored)), max_steps=max_steps)

    # the abstract element: (outcome, positions, values), one position
    # (array, index point) and one value per cell
    cells = [(name, c) for name in cfg.arrays for c in sp.cells[name]]
    x = set()
    for st in enumerate_executions(prog, abounds):
        sc = st.scalar_dict()
        x.add(
            (
                (st.status, tuple(sc[n] for n in names)),
                tuple((name, tuple(sc[xv] for xv in c.index)) for name, c in cells),
                tuple(sc[c.value] for _name, c in cells),
            )
        )

    # gamma: an outcome survives if some array contents are covered at
    # every instantiation, one per array, each read at its own box
    points = {name: [(name, b) for b in box] for name, box in boxes.items()}
    insts = [
        tuple(itertools.chain(*combo))
        for combo in itertools.product(*(instantiations(points[name], spec) for name, spec in cfg.arrays.items()))
    ]

    # candidate contents per position: every value some cell was
    # observed to hold there (writes can leave the initial value
    # universe, so enumerating `values` alone would miss witnesses)
    observed: dict[tuple, set] = {}
    for _o, ps, vs in x:
        for a, v in zip(ps, vs):
            observed.setdefault(a, set()).add(v)
    every = [a for ps in points.values() for a in ps]
    contents_space = [
        dict(zip(every, vs)) for vs in itertools.product(*(sorted(observed.get(a, ())) for a in every))
    ]

    outcomes = {o for o, _ps, _vs in x}
    abstract = {o for o in outcomes if any(covers(x, o, contents, insts) for contents in contents_space)}

    concrete_only = tuple(sorted(concrete - abstract))
    abstract_only = tuple(sorted(abstract - concrete))
    return CompletenessResult(
        equal=not concrete_only and not abstract_only,
        sound=not concrete_only,
        concrete_only=concrete_only,
        abstract_only=abstract_only,
        scalars=tuple(names),
    )


# ------------------------------------------------------ random programs


MAX_ARRAYS = 2  # arrays per generated program
MAX_ACCESSES = 4  # array accesses per generated program
MAX_LEN = 3  # length of each generated array
N_SCALARS = 3  # scalar variables besides the access indices


def random_loopfree_program(rng: random.Random) -> tuple[Program, IndexConfig]:
    """A small loop-free program plus the cell budget the theorem asks
    for (one cell per access). Every access index is havocked into
    range first, so runs stay in bounds."""
    n_arrays = rng.randint(1, MAX_ARRAYS)
    arrays = []
    for i in range(n_arrays):
        arrays.append(ArrayDecl(f"f{i}", (Num(rng.randint(1, MAX_LEN)),)))
    scalars = [f"s{i}" for i in range(N_SCALARS)]
    idxs: list[str] = []
    body: list[Stmt] = []
    accesses = {a.name: 0 for a in arrays}
    budget = rng.randint(1, MAX_ACCESSES)

    def lin_expr():
        v = rng.choice(scalars)
        c = rng.randint(-2, 2)
        kind = rng.randrange(3)
        if kind == 0:
            return Num(c)
        if kind == 1:
            return Var(v)
        return (Add if rng.getrandbits(1) else Sub)(Var(v), Num(abs(c)))

    def new_index(arr: ArrayDecl) -> str:
        nm = f"j{len(idxs)}"
        idxs.append(nm)
        body.append(Havoc(nm))
        body.append(
            Assume(
                CondAnd(
                    (
                        Cmp("<=", Num(0), Var(nm)),
                        Cmp("<", Var(nm), arr.dims[0]),
                    )
                )
            )
        )
        return nm

    stmts = rng.randint(2, 6)
    for _ in range(stmts):
        kind = rng.randrange(5)
        placed = sum(accesses.values())
        if kind in (0, 1) and placed < budget:
            arr = rng.choice(arrays)
            accesses[arr.name] += 1
            j = new_index(arr)
            if kind == 0:
                body.append(Assign(rng.choice(scalars), ArrRead(arr.name, (Var(j),))))
            else:
                body.append(ArrWrite(arr.name, (Var(j),), lin_expr()))
        elif kind == 2:
            body.append(Assign(rng.choice(scalars), lin_expr()))
        elif kind == 3:
            body.append(
                If(
                    Cmp(rng.choice(["<", "<=", "=="]), Var(rng.choice(scalars)), lin_expr()),
                    (Assign(rng.choice(scalars), lin_expr()),),
                    (),
                )
            )
        else:
            body.append(Havoc(rng.choice(scalars)))

    used = [a for a in arrays if accesses[a.name] > 0]
    cfg = IndexConfig(arrays={a.name: ArrayCells(max(1, accesses[a.name])) for a in used})
    p = Program(
        "r",
        (),
        tuple(used),
        tuple(scalars) + tuple(idxs),
        tuple(body),
    )
    return p, cfg
