"""Brute-force validation of the abstraction laws.

Every check is parameterised by a k-cell layout, `ArrayCells(count,
ordered)`, and reads array contents at that layout's instantiations
through the shared alpha and gamma of `domains`. check_galois exhausts
or samples subset pairs and verifies the connection laws;
check_statement_soundness runs one elementary statement both
concretely and through the shipped transformer and compares relational
images; check_precision_loss_example reproduces the loss of relational
information when a scalar is projected away.

Abstract relational semantics are obtained by executing the
transformed statements under the concrete interpreter, so these
checks exercise the real transformer, not a parallel model of it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..lang.ast import ArrayDecl, Num, Program, Stmt
from ..lang.interp import OK, run_program
from ..transform import ArrayCells, IndexConfig, transform_program
from .domains import FiniteDomain, OracleError, alpha, gamma, universe


@dataclass(frozen=True)
class LawCheck:
    law: str
    cases: int
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


@dataclass(frozen=True)
class OracleReport:
    case: str
    domain: str
    laws: tuple[LawCheck, ...]

    @property
    def ok(self) -> bool:
        return all(l.ok for l in self.laws)

    def render(self) -> str:
        lines = [f"case {self.case} ({self.domain})"]
        for l in self.laws:
            mark = "pass" if l.ok else "FAIL"
            tail = f"  cex: {l.counterexample}" if l.counterexample else ""
            lines.append(f"  {l.law:<28} {l.cases:>6} cases  {mark}{tail}")
        return "\n".join(lines)


def _subsets(items: Sequence) -> Iterable[frozenset]:
    for mask in range(1 << len(items)):
        yield frozenset(x for i, x in enumerate(items) if mask >> i & 1)


def _sample(items: Sequence, rng: random.Random) -> frozenset:
    return frozenset(x for x in items if rng.getrandbits(1))


def _monotone(law: str, name: str, sets: Sequence[frozenset], images: Sequence[frozenset]) -> LawCheck:
    """Every comparable pair of sets has images in the same order."""
    cex = None
    pairs_checked = 0
    for (s1, i1), (s2, i2) in itertools.combinations(zip(sets, images), 2):
        (lo, ilo), (hi, ihi) = ((s1, i1), (s2, i2)) if s1 <= s2 else ((s2, i2), (s1, i1))
        if not lo <= hi:
            continue
        pairs_checked += 1
        if not ilo <= ihi:
            cex = f"{name}1={sorted(lo)} {name}2={sorted(hi)}"
            break
    return LawCheck(law, pairs_checked, cex)


def check_galois(
    dom: FiniteDomain,
    cells: ArrayCells,
    *,
    samples: int | None = None,
    seed: int = 0,
) -> OracleReport:
    """Connection laws for the k-cell layout `cells` over dom.

    With samples=None every subset of both spaces is enumerated (keep
    the tuple spaces at 10 elements or fewer); otherwise `samples`
    random subset pairs are drawn. Checked: extensivity F <= gamma
    (alpha F), reductivity alpha(gamma X) <= X, monotonicity of both
    maps, and alpha distributing over union.
    """
    tuple_universe = universe(dom, cells)
    pair_universe = dom.pairs()
    if samples is None:
        if len(pair_universe) > 10 or len(tuple_universe) > 10:
            raise OracleError("exhaustive mode needs tiny spaces; pass samples=")
        concrete_sets = list(_subsets(pair_universe))
        abstract_sets = list(_subsets(tuple_universe))
    else:
        rng = random.Random(seed)
        concrete_sets = [_sample(pair_universe, rng) for _ in range(samples)]
        abstract_sets = [_sample(tuple_universe, rng) for _ in range(samples)]

    laws: list[LawCheck] = []

    alphas = [alpha(f, dom, cells) for f in concrete_sets]
    cex = None
    for f, af in zip(concrete_sets, alphas):
        if not f <= gamma(af, dom, cells):
            cex = f"F={sorted(f)}"
            break
    laws.append(LawCheck("extensive: F <= g(a(F))", len(concrete_sets), cex))

    cex = None
    for x in abstract_sets:
        if not alpha(gamma(x, dom, cells), dom, cells) <= x:
            cex = f"X={sorted(x)}"
            break
    laws.append(LawCheck("reductive: a(g(X)) <= X", len(abstract_sets), cex))

    laws.append(_monotone("alpha monotone", "F", concrete_sets, alphas))
    laws.append(_monotone("gamma monotone", "X", abstract_sets, [gamma(x, dom, cells) for x in abstract_sets]))

    cex = None
    pairs_checked = 0
    for (f1, a1), (f2, a2) in itertools.combinations(zip(concrete_sets, alphas), 2):
        pairs_checked += 1
        if alpha(f1 | f2, dom, cells) != a1 | a2:
            cex = f"F1={sorted(f1)} F2={sorted(f2)}"
            break
    laws.append(LawCheck("alpha joins unions", pairs_checked, cex))

    return OracleReport(f"galois[{cells}]", dom.size_str(), tuple(laws))


# ------------------------------------------------ statement soundness


def check_statement_soundness(
    stmt: Stmt,
    cfg: IndexConfig,
    dom: FiniteDomain,
    scalar_vars: Sequence[str],
    *,
    array: str = "f",
    samples: int = 120,
    seed: int = 0,
) -> OracleReport:
    """Forward and backward containment for one elementary statement.

    dom.S must hold value tuples for scalar_vars. The abstract step is
    whatever the transformer emits for stmt, executed relationally by
    the interpreter from each tuple of the layout `cfg.arrays[array]`:
    its cells start at the tuple's positions and values, and gamma
    reads array contents at that layout's instantiations.
    """
    layout = cfg.arrays[array]
    concrete_p = Program(
        "c", (), (ArrayDecl(array, (Num(len(dom.A)),)),), tuple(scalar_vars), (stmt,)
    )
    sp = transform_program(concrete_p, cfg)
    body = sp.program.body[sp.prologue_len:]
    cells = sp.cells[array]
    abstract_p = Program(
        "a",
        sp.program.params,
        (),
        sp.program.locals,
        body,
    )

    # tuple -> reachable final tuples, running the transformed statement
    def abstract_step(t: tuple) -> frozenset:
        s, ps, vs = t
        env = dict(zip(scalar_vars, s))
        for c, a, b in zip(cells, ps, vs):
            env[c.index[0]] = a
            env[c.value] = b
        outs = set()
        for fin in run_program(abstract_p, env, {}, values=dom.B):
            if fin.status != OK:
                continue
            sc = fin.scalar_dict()
            s2 = tuple(sc[n] for n in scalar_vars)
            outs.add((s2, ps, tuple(sc[c.value] for c in cells)))
        return frozenset(outs)

    def concrete_step(s: tuple, f: tuple) -> frozenset:
        env = dict(zip(scalar_vars, s))
        arr = {array: {(i,): v for i, v in zip(dom.A, f)}}
        outs = set()
        for fin in run_program(concrete_p, env, arr, values=dom.B):
            if fin.status != OK:
                continue
            sc = fin.scalar_dict()
            s2 = tuple(sc[n] for n in scalar_vars)
            f2 = tuple(fin.array_dict(array)[(i,)] for i in dom.A)
            outs.add((s2, f2))
        return frozenset(outs)

    tuples = universe(dom, layout)
    universe_set = set(tuples)
    s_set = set(dom.S)
    b_set = set(dom.B)
    step_of = {t: abstract_step(t) for t in tuples}
    for t, outs in step_of.items():
        for t2 in outs:
            if t2 not in universe_set:
                raise OracleError(
                    f"domain not closed under statement: {t} steps to {t2}"
                )
    conc_of = {(s, tuple(f)): concrete_step(s, tuple(f)) for s, f in dom.pairs()}
    for (s, f), outs in conc_of.items():
        for s2, f2 in outs:
            if s2 not in s_set or any(v not in b_set for v in f2):
                raise OracleError(
                    f"domain not closed under statement: {(s, f)} reaches {(s2, f2)}"
                )

    rng = random.Random(seed)
    xs = [frozenset(tuples), frozenset()]
    xs += [_sample(tuples, rng) for _ in range(samples)]

    fwd_cex = None
    bwd_cex = None
    checked = 0
    for x in xs:
        checked += 1
        image = frozenset().union(*(step_of[t] for t in x)) if x else frozenset()
        post_pairs = gamma(image, dom, layout)
        if fwd_cex is None:
            for s, f in gamma(x, dom, layout):
                for fin in conc_of[(s, f)]:
                    if fin not in post_pairs:
                        fwd_cex = f"X={sorted(x)} from {(s, f)} reaches {fin}"
                        break
                if fwd_cex:
                    break
        if bwd_cex is None:
            pre = frozenset(t for t in tuples if step_of[t] & x)
            pre_pairs = gamma(pre, dom, layout)
            targets = gamma(x, dom, layout)
            for s, f in dom.pairs():
                if conc_of[(s, f)] & targets:
                    if (s, f) not in pre_pairs:
                        bwd_cex = f"Y={sorted(x)} misses source {(s, f)}"
                        break

    laws = (
        LawCheck("forward image contained", checked, fwd_cex),
        LawCheck("backward image contained", checked, bwd_cex),
    )
    return OracleReport(f"statement[{type(stmt).__name__}, {layout}]", dom.size_str(), laws)


# ------------------------------------------------ precision loss (§ scalar drop)


def check_precision_loss_example(dom: FiniteDomain) -> OracleReport:
    """Dropping the scalar copy of the stored value loses constantness.

    Start from tuples (v, a, v): arrays constant, with the constant
    remembered by the scalar part. Projecting the scalar away keeps
    every (a, v) column, whose concretization is all functions; the
    inclusion is strict exactly when both |A| and |B| exceed 1.
    """
    full = FiniteDomain(dom.A, dom.B, tuple((v,) for v in dom.B))
    flat = FiniteDomain(dom.A, dom.B, ((),))
    one = ArrayCells(1)

    x = frozenset(((v,), (a,), (v,)) for v in dom.B for a in dom.A)
    constants = gamma(x, full, one)
    projected = frozenset(((), ps, vs) for (_s, ps, vs) in x)
    widened = gamma(projected, flat, one)

    left = frozenset(((), f) for _s, f in constants)
    ok_incl = left <= widened
    expect_strict = len(dom.A) > 1 and len(dom.B) > 1
    strict = left < widened
    laws = (
        LawCheck(
            "projection over-approximates",
            len(widened),
            None if ok_incl else "projection lost states",
        ),
        LawCheck(
            "strict exactly when |A|,|B|>1",
            len(widened),
            None if strict == expect_strict else f"strict={strict}",
        ),
    )
    return OracleReport("precision-loss", dom.size_str(), laws)
