"""Brute-force ground truth for the cell abstraction on finite domains."""

from .completeness import (
    CompletenessResult,
    check_completeness,
    random_loopfree_program,
)
from .domains import (
    FiniteDomain,
    OracleError,
    alpha,
    covers,
    gamma,
    instantiations,
    universe,
)
from .laws import (
    LawCheck,
    OracleReport,
    check_galois,
    check_precision_loss_example,
    check_statement_soundness,
)

__all__ = [
    "CompletenessResult",
    "FiniteDomain",
    "LawCheck",
    "OracleError",
    "OracleReport",
    "alpha",
    "check_completeness",
    "check_galois",
    "check_precision_loss_example",
    "check_statement_soundness",
    "covers",
    "gamma",
    "instantiations",
    "random_loopfree_program",
    "universe",
]
