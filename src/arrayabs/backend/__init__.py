"""Scalar invariant inference: abstract interpretation over an
octagon x affine-equality product partitioned on boolean flags, and an
exact path-based analysis for loop-free programs.

Both run one statement walker, `abstract.Interpreter`, over a state with
`is_empty`, `assign`, `forget`, `guard`, `assume`, `refutes`, `keeps`,
`join` and `bounded`; it knows no flags and trusts what `transform_program` checked.
`AbstractState` alone has loops and flags (its `assign` of a flag moves
partitions); its `bounded` collapses the partitions past `PARTITION_CAP`
(after each If, and at loop heads). The exact path set raises `ExactError` past `PATH_CAP`
paths after an If, and on any loop before the walk.

The walker turns each condition once per run into what the state meets
(`guard`): `AbstractState` lowers the negation normal forms of it and
its negation into guards over the positions its parts share
(`product.compile_guard`), which meet exactly as those forms would;
the exact path set keeps the formula and its `lnot`. Guards go with
the walker, so none outlives a run.

The walker records the asserts it meets with the states that reached
them, and each analysis resolves them with `assert_verdicts` once the
walk is done. A loop records one walk of its body from its head: the
round that found the head when that round left it unchanged, else,
when the body holds an assert, one more walk from the head. So no body
is walked twice from the same head, and the verdicts are those of a
check pass from the head, which is sound because the head covers every
reachable state of the loop.
"""

from .abstract import (
    AbstractState,
    AnalysisError,
    AnalysisResult,
    AssertVerdict,
    analyze_scalar,
)
from .affine import AffineEqs
from .exact import (
    ExactError,
    ExactResult,
    analyze_loopfree_exact,
    primed,
)
from .octagon import Octagon
from .product import Product

__all__ = [
    "AbstractState",
    "AffineEqs",
    "AnalysisError",
    "AnalysisResult",
    "AssertVerdict",
    "ExactError",
    "ExactResult",
    "Octagon",
    "Product",
    "analyze_loopfree_exact",
    "analyze_scalar",
    "primed",
]
