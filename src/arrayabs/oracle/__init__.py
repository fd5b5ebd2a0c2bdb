"""Brute-force ground truth for the cell abstraction on finite domains."""

from .completeness import (
    CompletenessResult,
    check_completeness,
    random_loopfree_program,
)
from .domains import (
    AbstractSet1,
    AbstractSet2,
    FiniteDomain,
    OracleError,
    alpha1,
    alpha2lt,
    gamma1,
    gamma2lt,
)
from .laws import (
    LawCheck,
    OracleReport,
    check_galois,
    check_precision_loss_example,
    check_statement_soundness,
)

__all__ = [
    "AbstractSet1",
    "AbstractSet2",
    "CompletenessResult",
    "FiniteDomain",
    "LawCheck",
    "OracleError",
    "OracleReport",
    "alpha1",
    "alpha2lt",
    "check_completeness",
    "check_galois",
    "check_precision_loss_example",
    "check_statement_soundness",
    "gamma1",
    "gamma2lt",
    "random_loopfree_program",
]
