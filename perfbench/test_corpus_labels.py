"""Every truth label of the benchmark's generated inputs, confirmed by
the concrete interpreter and never by the analyzer under test.

    python3 -m pytest perfbench/test_corpus_labels.py -q

A corpus entry whose label disagrees with the interpreter does not
belong in the corpus: fix the entry, never the check.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from arrayabs import lang, transform  # noqa: E402

import reference  # noqa: E402
from workloads import corpus_entries, entry_config, entry_source, wide_bounds  # noqa: E402

SIZES = (0, 1, 2, 3)


@pytest.mark.parametrize("entry", corpus_entries(), ids=lambda e: e["name"])
def test_corpus_label(entry):
    p = lang.parse_program(entry_source(entry))
    assert p.target is not None
    assert reference.ensures_holds(p, SIZES) == entry["label"]


@pytest.mark.parametrize("entry", corpus_entries(), ids=lambda e: e["name"])
def test_corpus_config_fits(entry):
    # flags name real access sites and the focus parses: transform accepts it
    p = lang.decompose_accesses(lang.parse_program(entry_source(entry)))
    transform.transform_program(p, entry_config(entry))


def test_every_true_entry_has_a_false_twin():
    entries = corpus_entries()
    programs_true = {e["program"] for e in entries if e["label"]}
    programs_false = {e["program"] for e in entries if not e["label"]}
    assert programs_true == programs_false


@pytest.mark.parametrize("seed", range(5))
def test_wide_bounds_labels(seed):
    jobs = wide_bounds(seed)
    assert {j.label for j in jobs} == {True, False}
    for job in jobs:
        assert reference.bounds_safe(job.source) == job.label, job.id


def test_ensures_check_finds_a_counterexample():
    # the reference itself must be able to say no
    p = lang.parse_program(
        "proc f(n: int) { array t[n]: int; } ensures forall k: 0 <= k && k < n ==> t[k] == old(t[k]) + 1;"
    )
    assert reference.ensures_holds(p, SIZES) is False
