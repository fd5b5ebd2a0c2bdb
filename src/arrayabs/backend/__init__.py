"""Scalar invariant inference: abstract interpretation over an
octagon x affine-equality product partitioned on boolean flags, and an
exact path-based analysis for loop-free programs.

Both run one statement walker, `abstract.Interpreter`, over a state with
`is_empty`, `assign`, `forget`, `guard`, `assume`, `entails`, `join` and
`bounded`. `AbstractState` alone has loops and flags; its `bounded`
collapses the partitions past `PARTITION_CAP` (after each If, and at
loop heads). The exact path set raises `ExactError` past `PATH_CAP`
paths after an If, and on any loop before the walk.
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
