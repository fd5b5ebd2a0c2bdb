"""Array-to-scalar translation: emitted text, and observer and layout validation."""

import pytest

from arrayabs.lang import CheckError, decompose_accesses, parse_condition, parse_program, to_source
from arrayabs.lia import Lin, dvd, parse_formula
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


# each fault case, by its label, and the error it raises: name faults
# show when check_program checks the translation
OBSERVER_ERRORS = {
    "duplicate observer flag names": (CheckError, "duplicate declaration of f"),
    "collide with program names: i": (CheckError, "duplicate declaration of i"),
    "collide with program names: t$0$v": (CheckError, r"duplicate declaration of t\$0\$v"),
    "unknown access 1": (TransformError, "unknown access 1"),
    "unknown names: z": (CheckError, "undeclared identifier z used as a scalar"),
    "unknown names: t": (CheckError, "undeclared identifier t used as a scalar"),
    "predicate reads a flag": (TransformError, "predicate of observer flag both reads the flag lt"),
}


@pytest.mark.parametrize(
    "flags, case",
    [
        ((ObsFlag(0, "f", parse_condition("i < n")), ObsFlag(0, "f", parse_condition("i > 0"))), "duplicate observer flag names"),
        ((ObsFlag(0, "i", parse_condition("i < n")),), "collide with program names: i"),
        ((ObsFlag(0, "t$0$v", parse_condition("i < n")),), "collide with program names: t$0$v"),
        ((ObsFlag(1, "f", parse_condition("i < n")),), "unknown access 1"),
        ((ObsFlag(0, "f", parse_condition("z < i")),), "unknown names: z"),
        ((ObsFlag(0, "f", parse_condition("t < i")),), "unknown names: t"),
        (PAIR + (ObsFlag(0, "both", parse_condition("lt == 1")),), "predicate reads a flag"),
    ],
)
def test_observer_errors(flags, case):
    error, message = OBSERVER_ERRORS[case]
    with pytest.raises(error, match=message):
        transform(INIT, flags)


GRID = """
proc grid(n: int) {
  array g[n][n]: int;
  var i: int;
  g[i][i] = 0;
}
"""

# each layout fault, by its label: the program, the layout, and the
# message of the TransformError it raises
LAYOUT_ERRORS = {
    "unknown array": (
        INIT,
        IndexConfig(arrays={"t": ArrayCells(1), "u": ArrayCells(1)}),
        "config names unknown arrays: u",
    ),
    "ordered cells on a 2-D array": (
        GRID,
        IndexConfig(arrays={"g": ArrayCells(2, ordered=True)}),
        "ordered cells need a 1-dimensional array, g has 2",
    ),
    "focus on a local": (
        INIT,
        IndexConfig(arrays={"t": ArrayCells(1)}, focus=parse_formula("t$0$x0 < i")),
        "focus mentions non-index, non-parameter variables: i",
    ),
    "focus with divisibility": (
        INIT,
        IndexConfig(arrays={"t": ArrayCells(1)}, focus=dvd(2, Lin.var("t$0$x0"))),
        "focus has no source form",
    ),
}


@pytest.mark.parametrize("case", list(LAYOUT_ERRORS))
def test_layout_errors(case):
    src, cfg, message = LAYOUT_ERRORS[case]
    with pytest.raises(TransformError, match=message):
        transform_program(parse_program(src), cfg)


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


SEARCH = """
proc search(n: int) {
  array t[n]: int;
  var i, x: int;
  i = 0;
  while (i < n && t[i] != 0) {
    i = i + 1;
  }
  x = t[t[i]];
}
"""


def test_raw_and_decomposed_input_translate_alike():
    # reads in a loop condition and in an index: the transform
    # decomposes them itself, and flag sites count the decomposed accesses
    flags = [ObsFlag(0, "a", parse_condition("t$0$x0 == i")), ObsFlag(3, "b", parse_condition("t$0$x0 < i"))]
    cfg = IndexConfig(arrays={"t": ArrayCells(2)}, observers=ObserverSpec(tuple(flags)))
    p = parse_program(SEARCH)
    raw = transform_program(p, cfg)
    pre = transform_program(decompose_accesses(p), cfg)
    assert to_source(raw.program) == to_source(pre.program)
    assert to_source(raw.source) == to_source(decompose_accesses(p))
    assert raw.flags == pre.flags == ("a", "b")

