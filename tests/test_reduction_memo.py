"""The product's reduction memo, audited on every element that an
analysis of benchmark jobs builds.

Each `Product` made while a job's scalar program is analysed is
checked against what its memo claims (`backend/product.py`):

- marked reduced: it equals `helpers.full_reduce` of its bare pair;
- every octagonal row it records as pushed is entailed by its octagon;
- every equality of the packs it records as read, and, with the
  "equalities held" flag, every equality of its octagon, is implied by
  its affine part.

Tier-1 audits three jobs, two of paper-corpus and one of wide-bounds;
the whole of both workloads goes under `slow`.
"""

import sys
from pathlib import Path

import pytest

from arrayabs import lang, transform
from arrayabs.backend import Octagon, Product, analyze_scalar
from arrayabs.lia import Lin

from helpers import full_reduce, oct_assume

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

QUICK = {"paper-corpus": ("copy", "dutch"), "wide-bounds": ("k3",)}


def jobs(quick):
    for name in ("paper-corpus", "wide-bounds"):
        for job in workloads.WORKLOADS[name].build(0):
            if not quick or job.id in QUICK[name]:
                yield pytest.param(job, id=f"{name}-{job.id}")


def products_made(job, monkeypatch):
    """Every product built while the job's scalar program is analysed."""
    sp = transform.transform_program(lang.decompose_accesses(lang.parse_program(job.source)), job.cfg)
    made = []
    init = Product.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Product, "__init__", recorded)
    analyze_scalar(sp)
    monkeypatch.undo()
    return made


def implied(aff, rows):
    return all(not any(aff._reduced(row)) for row in rows)


def audit(p):
    o = p.oct.close()
    if p._reduced:
        assert p == full_reduce(Product(p.oct, p.aff))
    n = len(p.vars)
    for row in p._pushed:
        lin = Lin.make(zip(p.vars, row), -row[n])
        assert oct_assume(oct_assume(o, lin), -lin) == o, row
    if p.aff.is_empty():
        return
    if p._read:
        assert implied(p.aff, Octagon(p.vars, p._read, False, True).equalities())
    if p._held:
        assert implied(p.aff, o.equalities())


def audit_job(job, monkeypatch):
    made = products_made(job, monkeypatch)
    assert any(p._held for p in made) and any(p._pushed for p in made)
    for p in made:
        audit(p)


@pytest.mark.parametrize("job", jobs(quick=True))
def test_memo_of_every_product_holds(job, monkeypatch):
    audit_job(job, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("job", jobs(quick=False))
def test_memo_of_every_product_holds_on_every_job(job, monkeypatch):
    audit_job(job, monkeypatch)
