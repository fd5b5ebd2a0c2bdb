"""The outputs of benchmark jobs at seed 0, pinned as digests of
`tools/output_hashes.py`. A change that means to change an output
updates the pin and says so.

wide-bounds and paper-corpus are pinned whole: they take about 2 s
together and have no job near a deadline. loopfree-exact is pinned on
the 25 jobs that each decide in under 0.25 s alone, about 1.3 s in
all, so that a change to `lia` is checked here too; which of its other
jobs time out depends on machine speed.

wide-bounds is pinned at seed 1 as well, in about 0.3 s: that seed
draws other fill constants and copy sources, so it covers programs
that seed 0 does not. A paper-corpus seed only reorders the jobs.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import output_hashes  # noqa: E402

DEADLINE_S = 60.0
PINNED = {"wide-bounds": "f1527bd7d94cb1a1", "paper-corpus": "173f6182fd67dd36", "loopfree-exact": "4e32749176744c14"}
# the jobs pinned of a workload that is not pinned whole
QUICK = {"loopfree-exact": {f"lf{g}" for g in (*range(2, 10), 12, 14, 15, 17, 19, 20, 22, 27, 29, 31, *range(33, 40))}}


PINNED_SEED_1 = {"wide-bounds": "9ae2cbebca2b5824"}


def digest(name, seed):
    lines = []
    for job in output_hashes.WORKLOADS[name].build(seed):
        if name in QUICK and job.id not in QUICK[name]:
            continue
        h = output_hashes.job_hash(job, DEADLINE_S)
        assert h is not None, f"{job.id} timed out"
        lines.append(f"{name} {job.id} {h}")
    return output_hashes.digest(lines)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outputs_hash_as_pinned(name):
    assert digest(name, 0) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED_SEED_1))
def test_outputs_at_seed_1_hash_as_pinned(name):
    assert digest(name, 1) == PINNED_SEED_1[name]
