"""The verdict of every paper-corpus job, through the benchmark's own
pipeline: which true labels are proved, and that no false one is.

The deadline is ten times the benchmark's, so that a slow machine does
not turn a verdict into a timeout; the whole table takes about a second.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import pipeline  # noqa: E402
import workloads  # noqa: E402

JOBS = workloads.paper_corpus(0)
PROVED = {"init", "index", "sorted", "sorted-dual", "adjacent", "copy"}
DEADLINE_S = 30.0


def test_only_true_labels_are_expected_proved():
    assert PROVED <= {job.id for job in JOBS if job.label}


@pytest.mark.parametrize("job", JOBS, ids=lambda job: job.id)
def test_corpus_verdict(job):
    out = pipeline.run_job(job, DEADLINE_S)
    assert out.verdict == (pipeline.PROVED if job.id in PROVED else pipeline.UNPROVED), out.error
