"""Brute-force validation of the abstraction laws.

check_galois exhausts or samples subset pairs and verifies the
connection laws; check_statement_soundness runs one elementary
statement both concretely and through the shipped transformer and
compares relational images; check_precision_loss_example reproduces
the loss of relational information when a scalar is projected away.

Abstract relational semantics are obtained by executing the
transformed statements under the concrete interpreter, so these
checks exercise the real transformer, not a parallel model of it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..lang.ast import ArrayDecl, Num, Program, Stmt
from ..lang.interp import OK, run_program
from ..transform.core import IndexConfig, transform_program
from .domains import (
    AbstractSet1,
    AbstractSet2,
    FiniteDomain,
    OracleError,
    alpha1,
    alpha2lt,
    gamma1,
    gamma2lt,
)


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


def _subsets(universe: Sequence) -> Iterable[frozenset]:
    for mask in range(1 << len(universe)):
        yield frozenset(x for i, x in enumerate(universe) if mask >> i & 1)


def _sample(universe: Sequence, rng: random.Random) -> frozenset:
    return frozenset(x for x in universe if rng.getrandbits(1))


def check_galois(
    dom: FiniteDomain,
    which: str = "alpha1",
    *,
    samples: int | None = None,
    seed: int = 0,
) -> OracleReport:
    """Connection laws for the chosen abstraction over dom.

    With samples=None every subset of both spaces is enumerated (keep
    the tuple spaces at 10 elements or fewer); otherwise `samples`
    random subset pairs are drawn. Checked: extensivity F <= gamma
    (alpha F), reductivity alpha(gamma X) <= X, monotonicity of both
    maps, and alpha distributing over union.
    """
    if which == "alpha1":
        alpha: Callable = alpha1
        gamma: Callable = gamma1
        wrap = AbstractSet1
        tuple_universe = [(s, a, b) for s in dom.S for a in dom.A for b in dom.B]
    elif which == "alpha2lt":
        alpha, gamma, wrap = alpha2lt, gamma2lt, AbstractSet2
        tuple_universe = [
            (s, a, b, a2, b2)
            for s in dom.S
            for a in dom.A
            for a2 in dom.A
            if a < a2
            for b in dom.B
            for b2 in dom.B
        ]
    else:
        raise OracleError(f"unknown abstraction {which!r}")

    pair_universe = dom.pairs()
    if samples is None:
        if len(pair_universe) > 10 or len(tuple_universe) > 10:
            raise OracleError("exhaustive mode needs tiny spaces; pass samples=")
        concrete_sets = [frozenset(f) for f in _subsets(pair_universe)]
        abstract_sets = [wrap(frozenset(t)) for t in _subsets(tuple_universe)]
    else:
        rng = random.Random(seed)
        concrete_sets = [_sample(pair_universe, rng) for _ in range(samples)]
        abstract_sets = [wrap(_sample(tuple_universe, rng)) for _ in range(samples)]

    laws: list[LawCheck] = []

    alphas = [alpha(f, dom) for f in concrete_sets]
    cex = None
    for f, af in zip(concrete_sets, alphas):
        if not f <= gamma(af, dom):
            cex = f"F={sorted(f)}"
            break
    laws.append(LawCheck("extensive: F <= g(a(F))", len(concrete_sets), cex))

    cex = None
    for x in abstract_sets:
        if not alpha(gamma(x, dom), dom) <= x:
            cex = f"X={sorted(x.tuples)}"
            break
    laws.append(LawCheck("reductive: a(g(X)) <= X", len(abstract_sets), cex))

    cex = None
    pairs_checked = 0
    for (f1, a1), (f2, a2) in itertools.combinations(zip(concrete_sets, alphas), 2):
        lo, hi = (f1, f2) if f1 <= f2 else (f2, f1)
        if not lo <= hi:
            continue
        alo, ahi = (a1, a2) if lo is f1 else (a2, a1)
        pairs_checked += 1
        if not alo <= ahi:
            cex = f"F1={sorted(lo)} F2={sorted(hi)}"
            break
    laws.append(LawCheck("alpha monotone", pairs_checked, cex))

    cex = None
    pairs_checked = 0
    gammas = [gamma(x, dom) for x in abstract_sets]
    for (x1, g1), (x2, g2) in itertools.combinations(zip(abstract_sets, gammas), 2):
        lo, hi = (x1, x2) if x1 <= x2 else (x2, x1)
        if not lo <= hi:
            continue
        glo, ghi = (g1, g2) if lo is x1 else (g2, g1)
        pairs_checked += 1
        if not glo <= ghi:
            cex = f"X1={sorted(lo.tuples)} X2={sorted(hi.tuples)}"
            break
    laws.append(LawCheck("gamma monotone", pairs_checked, cex))

    cex = None
    pairs_checked = 0
    for (f1, a1), (f2, a2) in itertools.combinations(zip(concrete_sets, alphas), 2):
        pairs_checked += 1
        if alpha(f1 | f2, dom).tuples != (a1 | a2).tuples:
            cex = f"F1={sorted(f1)} F2={sorted(f2)}"
            break
    laws.append(LawCheck("alpha joins unions", pairs_checked, cex))

    return OracleReport(f"galois[{which}]", dom.size_str(), tuple(laws))


# ------------------------------------------------ statement soundness


def _index_vals(dom: FiniteDomain) -> list[int]:
    vals = list(dom.A)
    if not all(isinstance(a, int) for a in vals):
        raise OracleError("statement checks need integer index points")
    return vals


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

    dom.S must hold value tuples for scalar_vars, dom.A consecutive
    integers 0..len-1. The abstract step is whatever the transformer
    emits for stmt, executed relationally by the interpreter; cell
    count of 1 or 2 selects the single- or double-index abstraction
    (double is unordered here: equal positions are legal and carry
    the matching-values constraint).
    """
    idx = _index_vals(dom)
    if idx != list(range(len(idx))):
        raise OracleError("index points must be 0..len-1")
    k = cfg.arrays[array].count
    if k not in (1, 2):
        raise OracleError("statement checks support 1 or 2 cells")

    concrete_p = Program(
        "c", (), (ArrayDecl(array, (Num(len(idx)),)),), tuple(scalar_vars), (stmt,)
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
        if k == 1:
            s, a, b = t
            env = dict(zip(scalar_vars, s))
            env[cells[0].index[0]] = a
            env[cells[0].value] = b
        else:
            s, a, b, a2, b2 = t
            env = dict(zip(scalar_vars, s))
            env[cells[0].index[0]] = a
            env[cells[0].value] = b
            env[cells[1].index[0]] = a2
            env[cells[1].value] = b2
        outs = set()
        for fin in run_program(abstract_p, env, {}, values=dom.B):
            if fin.status != OK:
                continue
            sc = fin.scalar_dict()
            s2 = tuple(sc[n] for n in scalar_vars)
            if k == 1:
                outs.add((s2, a, sc[cells[0].value]))
            else:
                outs.add((s2, a, sc[cells[0].value], a2, sc[cells[1].value]))
        return frozenset(outs)

    def concrete_step(s: tuple, f: tuple) -> frozenset:
        env = dict(zip(scalar_vars, s))
        arr = {array: {(i,): v for i, v in zip(idx, f)}}
        outs = set()
        for fin in run_program(concrete_p, env, arr, values=dom.B):
            if fin.status != OK:
                continue
            sc = fin.scalar_dict()
            s2 = tuple(sc[n] for n in scalar_vars)
            f2 = tuple(fin.array_dict(array)[(i,)] for i in idx)
            outs.add((s2, f2))
        return frozenset(outs)

    if k == 1:
        universe = [(s, a, b) for s in dom.S for a in idx for b in dom.B]

        def gamma(x: frozenset) -> list:
            return [
                (s, f)
                for s, f in dom.pairs()
                if all((s, a, f[i]) in x for i, a in enumerate(idx))
            ]

    else:
        universe = [
            (s, a, b, a2, b2)
            for s in dom.S
            for a in idx
            for a2 in idx
            for b in dom.B
            for b2 in dom.B
            if a != a2 or b == b2
        ]

        def gamma(x: frozenset) -> list:
            return [
                (s, f)
                for s, f in dom.pairs()
                if all(
                    (s, a, f[i], a2, f[j]) in x
                    for i, a in enumerate(idx)
                    for j, a2 in enumerate(idx)
                )
            ]

    universe_set = set(universe)
    s_set = set(dom.S)
    b_set = set(dom.B)
    step_of = {t: abstract_step(t) for t in universe}
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
    xs = [frozenset(universe), frozenset()]
    xs += [_sample(universe, rng) for _ in range(samples)]

    fwd_cex = None
    bwd_cex = None
    checked = 0
    for x in xs:
        checked += 1
        image = frozenset().union(*(step_of[t] for t in x)) if x else frozenset()
        post_pairs = set(gamma(image))
        if fwd_cex is None:
            for s, f in gamma(x):
                for fin in conc_of[(s, f)]:
                    if fin not in post_pairs:
                        fwd_cex = f"X={sorted(x)} from {(s, f)} reaches {fin}"
                        break
                if fwd_cex:
                    break
        if bwd_cex is None:
            pre = frozenset(t for t in universe if step_of[t] & x)
            pre_pairs = set(gamma(pre))
            targets = set(gamma(x))
            for s, f in dom.pairs():
                if conc_of[(s, f)] & frozenset(targets):
                    if (s, f) not in pre_pairs:
                        bwd_cex = f"Y={sorted(x)} misses source {(s, f)}"
                        break

    laws = (
        LawCheck("forward image contained", checked, fwd_cex),
        LawCheck("backward image contained", checked, bwd_cex),
    )
    return OracleReport(f"statement[{type(stmt).__name__}, k={k}]", dom.size_str(), laws)


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

    x = AbstractSet1.of(((v,), a, v) for v in dom.B for a in dom.A)
    constants = gamma1(x, full)
    projected = AbstractSet1.of(((), a, b) for (_s, a, b) in x.tuples)
    widened = gamma1(projected, flat)

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
