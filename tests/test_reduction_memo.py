"""The product's lazy affine part, audited on every element that an
analysis of benchmark jobs builds.

This file once audited the product's reduction memo, which is gone;
the test names stay. Each `Product` made while a job's scalar program
is analysed is checked against what `backend/product.py` claims:

- every product reduces to `helpers.full_reduce` of itself;
- every part of an `AbstractState`, an element the analysis keeps: a
  present affine part holds a row its closed octagon does not entail,
  and implies every equality of that octagon.

Tier-1 audits three jobs, two of paper-corpus and one of wide-bounds;
the whole of both workloads goes under `slow`.
"""

import sys
from pathlib import Path

import pytest

from arrayabs import lang, transform
from arrayabs.backend import AbstractState, Product, analyze_scalar
from arrayabs.lia import Lin

from helpers import full_reduce, oct_assume, wide

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

QUICK = {"paper-corpus": ("copy", "dutch"), "wide-bounds": ("k3",)}


def jobs(quick):
    for name in ("paper-corpus", "wide-bounds"):
        for job in workloads.WORKLOADS[name].build(0):
            if not quick or job.id in QUICK[name]:
                yield pytest.param(job, id=f"{name}-{job.id}")


def made_while_analysed(job, monkeypatch):
    """Every product, and the part of every abstract state, built while
    the job's scalar program is analysed."""
    sp = transform.transform_program(lang.decompose_accesses(lang.parse_program(job.source)), job.cfg)
    made = {Product: [], AbstractState: []}
    for cls, out in made.items():
        def recorded(self, *args, init=cls.__init__, out=out, **kwargs):
            init(self, *args, **kwargs)
            out.append(self)

        monkeypatch.setattr(cls, "__init__", recorded)
    analyze_scalar(sp)
    monkeypatch.undo()
    return made[Product], [p for st in made[AbstractState] for p in st.parts.values()]


def implied(aff, rows):
    return all(not any(aff._reduced(row)) for row in rows)


def entailed(o, row):
    """Whether the closed octagon o entails the row, which needs it to
    be octagonal."""
    lin = Lin.make(zip(o.vars, row), -row[-1])
    return not wide(row) and oct_assume(oct_assume(o, lin), -lin) == o


def audit_kept(p):
    o = p.oct.close()
    if p.aff is None or p.aff.is_empty() or o.is_empty():
        return
    assert not all(entailed(o, row) for row in p.aff.rows)
    assert implied(p.aff, o.equalities())


def audit_job(job, monkeypatch):
    made, kept = made_while_analysed(job, monkeypatch)
    assert kept
    for p in made:
        assert p.reduce() == full_reduce(p)
    for p in kept:
        audit_kept(p)


@pytest.mark.parametrize("job", jobs(quick=True))
def test_memo_of_every_product_holds(job, monkeypatch):
    audit_job(job, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("job", jobs(quick=False))
def test_memo_of_every_product_holds_on_every_job(job, monkeypatch):
    audit_job(job, monkeypatch)
