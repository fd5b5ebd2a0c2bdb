"""The outputs of every wide-bounds and paper-corpus job at seed 0,
pinned as digests of `tools/output_hashes.py`. A change that means to
change an output updates the pin and says so. loopfree-exact stays out,
because which of its jobs time out depends on machine speed; these two
workloads take about 2 s together and have no job near a deadline.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import output_hashes  # noqa: E402

DEADLINE_S = 60.0
PINNED = {"wide-bounds": "f1527bd7d94cb1a1", "paper-corpus": "d37f543e3a3e09df"}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_hash_as_pinned(name):
    lines = []
    for job in output_hashes.WORKLOADS[name].build(0):
        h = output_hashes.job_hash(job, DEADLINE_S)
        assert h is not None, f"{job.id} timed out"
        lines.append(f"{name} {job.id} {h}")
    assert output_hashes.digest(lines) == PINNED[name]
