"""Scalar invariant inference: abstract interpretation over an
octagon x affine-equality product partitioned on boolean flags, and an
exact path-based analysis for loop-free programs."""

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
