"""Configuration types for the scalar translation.

Every cell follows the writes to its position. The array contents at
entry are reached through snapshot variables, which the translation
adds for exactly the arrays that the ensures clause reads through
old(); the configuration has no say in that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..lang.ast import Cond
from ..lia import Formula


class TransformError(ValueError):
    pass


@dataclass(frozen=True)
class ArrayCells:
    """How one array is abstracted.

    `count` symbolic cells track the array; `ordered` keeps their
    positions strictly increasing (one-dimensional arrays only).
    """

    count: int
    ordered: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise TransformError("cell count must be >= 1 (drop an array by omitting it)")


@dataclass(frozen=True)
class ObsFlag:
    """One write-only boolean: at access site `site`, record whether
    `pred` holds. Predicates range over program scalars and cell
    variables; `check_program` on the translation rejects any other
    name, and `transform_program` a predicate that reads a flag."""

    site: int
    name: str
    pred: Cond


@dataclass(frozen=True)
class ObserverSpec:
    flags: tuple[ObsFlag, ...] = ()


@dataclass(frozen=True)
class IndexConfig:
    """Cell layout per array, plus the optional focus precondition.

    Arrays absent from `arrays` are dropped: their reads become havoc,
    their writes disappear. `focus` constrains the symbolic indices
    (and parameters); `bounds_checks` mirrors out-of-range accesses of
    the source as assertion failures in the scalar program.
    """

    arrays: Mapping[str, ArrayCells] = field(default_factory=dict)
    focus: Formula | None = None
    observers: ObserverSpec | None = None
    bounds_checks: bool = False
