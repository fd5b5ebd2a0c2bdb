"""One walk per loop head. `Interpreter.loop` keeps the asserts met on
its last round when that round left the head as it was, and walks the
body once more only when the head shrank on it. Its verdicts and exit
formulas are checked against the loop with a separate check pass
(helpers.CheckPassInterpreter), and the body walks of each loop are
counted against the reference's.
"""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from arrayabs.backend import analyze_scalar
from arrayabs.backend.abstract import Interpreter
from arrayabs.lang import While, decompose_accesses, parse_program, walk_stmts
from arrayabs.transform import IndexConfig, transform_program

from helpers import analyze_with_check_pass

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def transformed(source, cfg=None):
    return transform_program(decompose_accesses(parse_program(source)), cfg or IndexConfig())


def assert_same_as_check_pass(sp):
    res, ref = analyze_scalar(sp), analyze_with_check_pass(sp)
    assert res.asserts == ref.asserts
    assert res.exit.to_formula() == ref.exit.to_formula()
    return res


def body_walks(monkeypatch, sp, analyze) -> Counter:
    """Walks of each loop body of sp during analyze(sp), by loop line."""
    bodies = {id(s.body): s.line for s in walk_stmts(sp.program.body) if isinstance(s, While)}
    walks = Counter()
    block = Interpreter.block

    def counted(self, stmts, st, met):
        if id(stmts) in bodies:
            walks[bodies[id(stmts)]] += 1
        return block(self, stmts, st, met)

    with monkeypatch.context() as m:
        m.setattr(Interpreter, "block", counted)
        analyze(sp)
    return walks


# the assert is proved only from the head: the round that finds the
# head starts from a larger post-fixpoint, where k <= 5 does not hold
STRICT = """proc p(n: int) {
  var i: int;
  var k: int;
  i = 0;
  k = 0;
  while (i < n) {
    assert(k <= 5);
    if (k < 5) {
      k = k + 1;
    }
    i = i + 1;
  }
}
"""

# the head is found on a round that changed nothing
EQUAL = """proc p(n: int) {
  var i: int;
  i = 0;
  while (i < n) {
    assert(0 <= i);
    i = i + 1;
  }
}
"""

# no assert in the body; the head shrinks on the last round, which
# brings back the bound i <= 10 that the widening dropped
NO_ASSERT = """proc p(n: int) {
  var i: int;
  i = 0;
  while (i < 10) {
    i = i + 1;
  }
  assert(i == 10);
}
"""

NESTED = """proc p(n: int) {
  var i: int;
  var j: int;
  i = 0;
  while (i < n) {
    j = 0;
    while (j < i) {
      assert(0 <= j);
      j = j + 1;
    }
    i = i + 1;
  }
}
"""

NESTED_BOTH = """proc p(n: int) {
  var i: int;
  var j: int;
  i = 0;
  while (i < n) {
    assert(0 <= i);
    j = 0;
    while (j < i) {
      assert(j < n);
      j = j + 1;
    }
    assert(j <= i);
    i = i + 1;
  }
}
"""

# the first assert of the body sits after a guard no state passes
DEAD = """proc p(n: int) {
  var i: int;
  var x: int;
  i = 0;
  while (i < n) {
    if (i < 0) {
      assert(x == 1);
    }
    assert(0 <= i);
    i = i + 1;
  }
}
"""


class TestSameAsCheckPass:
    def test_strict_convergence(self):
        res = assert_same_as_check_pass(transformed(STRICT))
        assert [(a.line, a.proven) for a in res.asserts] == [(7, True)]

    def test_nested_loops_with_asserts_in_both_bodies(self):
        res = assert_same_as_check_pass(transformed(NESTED_BOTH))
        assert [(a.line, a.proven) for a in res.asserts] == [(6, True), (9, True), (12, True)]

    def test_dead_assert_records_no_verdict(self):
        res = assert_same_as_check_pass(transformed(DEAD))
        assert [(a.line, a.proven) for a in res.asserts] == [(9, True)]

    @pytest.mark.parametrize("job", workloads.wide_bounds(0), ids=lambda job: job.id)
    def test_wide_bounds_program(self, job):
        assert_same_as_check_pass(transformed(job.source, job.cfg))

    def test_corpus_job_with_flags(self):
        (job,) = [job for job in workloads.paper_corpus(0) if job.id == "sorted"]
        sp = transformed(job.source, job.cfg)
        assert len(sp.flags) == 4
        res = assert_same_as_check_pass(sp)
        assert len(res.exit.parts) > 1


class TestBodyWalks:
    def test_equal_head_walks_once_per_round(self, monkeypatch):
        # the reference's walks are the rounds and its check pass
        sp = transformed(EQUAL)
        ref = body_walks(monkeypatch, sp, analyze_with_check_pass)
        assert body_walks(monkeypatch, sp, analyze_scalar) == {4: ref[4] - 1}

    def test_shrunk_head_walks_once_more(self, monkeypatch):
        sp = transformed(STRICT)
        ref = body_walks(monkeypatch, sp, analyze_with_check_pass)
        assert body_walks(monkeypatch, sp, analyze_scalar) == ref

    def test_body_without_assert_is_not_walked_after_convergence(self, monkeypatch):
        sp = transformed(NO_ASSERT)
        ref = body_walks(monkeypatch, sp, analyze_with_check_pass)
        assert body_walks(monkeypatch, sp, analyze_scalar) == {4: ref[4] - 1}

    def test_nested_loops_walk_no_more_than_the_check_pass(self, monkeypatch):
        sp = transformed(NESTED)
        ref = body_walks(monkeypatch, sp, analyze_with_check_pass)
        assert ref == {5: 5, 7: 15}
        walks = body_walks(monkeypatch, sp, analyze_scalar)
        assert walks[5] <= ref[5] and walks[7] <= ref[7]


# ------------------------------------------------------------ random sweep

VARS = ("i", "j", "k", "x")


def rand_cond(rng: random.Random) -> str:
    a, b = rng.sample(VARS + ("n",), 2)
    rhs = b if rng.random() < 0.4 else str(rng.randint(-1, 6))
    return f"{a} {rng.choice(('<', '<=', '=='))} {rhs}"


def rand_block(rng: random.Random, depth: int, pad: str) -> list[str]:
    """Random statements. A counter capped at 3 to 5 loses its bound to
    the widening and gets it back on the round that finds the head, so
    an assert that reads the bound is proved only from the head."""
    lines = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        v = rng.choice(VARS)
        if r < 0.2:
            lines.append(f"{pad}{v} = {rng.choice(VARS)} + {rng.randint(-1, 2)};")
        elif r < 0.35:
            lines += [f"{pad}if ({v} < {rng.randint(3, 5)}) {{", f"{pad}  {v} = {v} + 1;", f"{pad}}}"]
        elif r < 0.45:
            lines.append(f"{pad}{v} = {rng.randint(-1, 3)};")
        elif r < 0.7:
            cond = rand_cond(rng) if rng.random() < 0.5 else f"{v} <= {rng.randint(2, 6)}"
            lines.append(f"{pad}assert({cond});")
        elif r < 0.85 and depth:
            lines.append(f"{pad}if ({rand_cond(rng)}) {{")
            lines += rand_block(rng, depth - 1, pad + "  ")
            lines.append(f"{pad}}}")
        elif depth:
            lines += [f"{pad}{v} = 0;", f"{pad}while ({v} < {rng.choice(('n', '4'))}) {{"]
            lines += rand_block(rng, depth - 1, pad + "  ")
            lines += [f"{pad}  {v} = {v} + 1;", f"{pad}}}"]
    return lines


def rand_program(seed: int) -> str:
    """A random block, then a loop whose body is a random block."""
    rng = random.Random(seed)
    lines = ["proc p(n: int) {", "  var i, j, k, x: int;", *rand_block(rng, 1, "  ")]
    lines += ["  while (i < n) {", *rand_block(rng, 2, "    "), "    i = i + 1;", "  }"]
    return "\n".join([*lines, "}", ""])


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(500))
def test_random_programs_same_as_check_pass(seed):
    assert_same_as_check_pass(transformed(rand_program(seed)))
