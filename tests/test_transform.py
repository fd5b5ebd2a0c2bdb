"""Array-to-scalar translation: emitted text and observer validation."""

import pytest

from arrayabs.lang import decompose_accesses, parse_condition, parse_program, to_source
from arrayabs.transform import ArrayCells, IndexConfig, ObserverSpec, ObsFlag, TransformError, transform_program

INIT = """
proc init(n: int) {
  array t[n]: int;
  var i: int;
  i = 0;
  while (i < n) {
    t[i] = 0;
    i = i + 1;
  }
}
"""

PAIR = (ObsFlag(0, "lt", parse_condition("t$0$x0 < i")), ObsFlag(0, "at", parse_condition("t$0$x0 == i")))


def transform(src: str, flags=(), bounds_checks=False, cells=None):
    cfg = IndexConfig(
        arrays=cells if cells is not None else {"t": ArrayCells(1)},
        observers=ObserverSpec(tuple(flags)),
        bounds_checks=bounds_checks,
    )
    return transform_program(decompose_accesses(parse_program(src)), cfg)


def expected_init(bounds_assert: str) -> str:
    return (
        "proc init(n: int, t$0$x0: int) {\n"
        "  var i: int;\n"
        "  var t$0$v: int;\n"
        "  var lt: int;\n"
        "  var at: int;\n"
        "  havoc t$0$v;\n"
        "  assume(0 <= t$0$x0 && t$0$x0 < n);\n"
        "  lt = 0;\n"
        "  at = 0;\n"
        "  i = 0;\n"
        "  while (i < n) {\n"
        "    if (t$0$x0 < i) {\n"
        "      lt = 1;\n"
        "    } else {\n"
        "      lt = 0;\n"
        "    }\n"
        "    if (t$0$x0 == i) {\n"
        "      at = 1;\n"
        "    } else {\n"
        "      at = 0;\n"
        "    }\n"
        f"{bounds_assert}"
        "    if (i == t$0$x0) {\n"
        "      t$0$v = 0;\n"
        "    }\n"
        "    i = i + 1;\n"
        "  }\n"
        "}\n"
    )


@pytest.mark.parametrize("bounds_checks", [False, True])
def test_init_latches_precede_assert_and_updates(bounds_checks):
    sp = transform(INIT, PAIR, bounds_checks)
    assert_line = "    assert(0 <= i && i < n);\n" if bounds_checks else ""
    assert to_source(sp.program) == expected_init(assert_line)
    assert sp.flags == ("lt", "at")
    # havoc, range assume, then the two flag inits
    assert sp.prologue_len == 4


def test_sites_number_then_branch_before_else():
    sp = transform(
        """
        proc f(n: int, c: int) {
          array t[n]: int;
          var r: int;
          var j: int;
          if (c > 0) {
            r = t[j];
          } else {
            t[j] = 5;
          }
        }
        """,
        [ObsFlag(1, "w", parse_condition("t$0$x0 == j"))],
    )
    assert to_source(sp.program) == (
        "proc f(n: int, c: int, t$0$x0: int) {\n"
        "  var r: int;\n"
        "  var j: int;\n"
        "  var t$0$v: int;\n"
        "  var w: int;\n"
        "  havoc t$0$v;\n"
        "  assume(0 <= t$0$x0 && t$0$x0 < n);\n"
        "  w = 0;\n"
        "  if (c > 0) {\n"
        "    havoc r;\n"
        "    if (j == t$0$x0) {\n"
        "      assume(r == t$0$v);\n"
        "    }\n"
        "  } else {\n"
        "    if (t$0$x0 == j) {\n"
        "      w = 1;\n"
        "    } else {\n"
        "      w = 0;\n"
        "    }\n"
        "    if (j == t$0$x0) {\n"
        "      t$0$v = 5;\n"
        "    }\n"
        "  }\n"
        "}\n"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        ((ObsFlag(0, "f", parse_condition("i < n")), ObsFlag(0, "f", parse_condition("i > 0"))), "duplicate observer flag names"),
        ((ObsFlag(0, "i", parse_condition("i < n")),), "collide with program names: i"),
        ((ObsFlag(0, "t$0$v", parse_condition("i < n")),), r"collide with program names: t\$0\$v"),
        ((ObsFlag(1, "f", parse_condition("i < n")),), "unknown access 1"),
        ((ObsFlag(0, "f", parse_condition("z < i")),), "unknown names: z"),
        ((ObsFlag(0, "f", parse_condition("t < i")),), "unknown names: t"),
    ],
)
def test_observer_errors(flags, message):
    with pytest.raises(TransformError, match=message):
        transform(INIT, flags)


def test_flags_on_program_without_array_access():
    src = """
    proc g(n: int) {
      array t[n]: int;
      var i: int;
      i = n;
    }
    """
    with pytest.raises(TransformError, match="unknown access 0"):
        transform(src, [ObsFlag(0, "f", parse_condition("i < n"))])
    assert transform(src).flags == ()
