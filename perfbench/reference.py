"""Correctness references that do not use the analyzer.

They run the concrete interpreter of `arrayabs.lang` on small bounds,
outside the timed region:

- `ensures_holds` decides a corpus label: the ensures clause on every
  terminating run from every initial content;
- `bounds_safe` decides a wide-bounds label: no run goes out of bounds;
- `relation_violations` counts reachable final states of a loop-free
  scalar program that its computed exact relation excludes.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from arrayabs import lang, transform
from arrayabs.backend import primed
from arrayabs.lang.interp import OK, OUT_OF_BOUNDS, index_box


def ensures_holds(p: lang.Program, sizes: Sequence[int], values: Sequence[int] = (0, 1, 2)) -> bool:
    """Whether p's ensures clause holds after every terminating run with
    every parameter in `sizes` and every array content over `values`."""
    target = p.target
    for pvals in itertools.product(sizes, repeat=len(p.params)):
        penv = dict(zip(p.params, pvals))
        box = index_box(p, penv)
        per_array = [
            [dict(zip(box[a.name], vals)) for vals in itertools.product(values, repeat=len(box[a.name]))]
            for a in p.arrays
        ]
        # ensures indices range over every position of every array
        span = range(1 + max((max(idx) for b in box.values() for idx in b), default=-1))
        for contents in itertools.product(*per_array):
            olds = {a.name: contents[i] for i, a in enumerate(p.arrays)}
            for st in lang.run_program(p, penv, olds, values):
                if st.status != OK:
                    continue
                scalars = st.scalar_dict()
                arrays = {a.name: st.array_dict(a.name) for a in p.arrays}
                for ks in itertools.product(span, repeat=len(target.indices)):
                    env = {**scalars, **dict(zip(target.indices, ks))}
                    if not lang.eval_cond(target.cond, env, arrays, olds):
                        return False
    return True


def bounds_safe(source: str, sizes: Sequence[int] = (0, 1, 2, 3)) -> bool:
    """No run of the program goes out of bounds. The wide-bounds programs
    branch only on i and n, so one array content per size decides it."""
    p = lang.parse_program(source)
    for n in sizes:
        penv = {name: n for name in p.params}
        box = index_box(p, penv)
        arrays = {a.name: {idx: 0 for idx in box[a.name]} for a in p.arrays}
        if any(st.status == OUT_OF_BOUNDS for st in lang.run_program(p, penv, arrays)):
            return False
    return True


def relation_violations(source: str, cfg: transform.IndexConfig, relation) -> int:
    """Final states of the transformed program, over every cell position
    and havoc value in a small range, that the relation rules out.

    Inputs are bare: parameters (the cell positions) keep their value,
    locals start at 0. Outputs are primed final values.
    """
    sp = transform.transform_program(lang.decompose_accesses(lang.parse_program(source)), cfg)
    prog = sp.program
    params = {}
    for name, cells in sp.cells.items():
        dims = [d.value for d in sp.source.array(name).dims]
        for c in cells:
            for xv, length in zip(c.index, dims):
                params[xv] = tuple(range(length))
    for values in ((-1, 0, 1, 2), (0, 1)):
        try:
            finals = lang.enumerate_executions(prog, lang.Bounds(params=params, values=values, max_steps=500_000))
            break
        except lang.EnumerationBudgetError:
            continue
    else:
        raise RuntimeError("reference enumeration too large even over values (0, 1)")
    bad = 0
    for st in finals:
        if st.status != OK:
            continue
        final = st.scalar_dict()
        env = {v: final[v] if v in prog.params else 0 for v in prog.scalars()}
        env.update({primed(v): final[v] for v in prog.scalars()})
        if not relation.evaluate(env):
            bad += 1
    return bad
