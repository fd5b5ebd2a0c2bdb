"""Exact linear integer arithmetic: formulas, solving, QE.

Formulas are built with the constructors below, or read from text by
`parse_formula`, which uses the one grammar of the mini-language's
conditions (see `parse`); `to_str` prints them.
"""

from .formula import (
    FALSE,
    TRUE,
    BudgetError,
    Formula,
    LiaError,
    Lin,
    dvd,
    eq,
    eq0,
    ge0,
    implies,
    land,
    le,
    lnot,
    lor,
    lt,
    ne,
    nnf,
    rename,
    simplify,
    subst,
)
from .parse import parse_formula
from .printing import to_str
from .qe import Budget, eliminate_quantifiers, project
from .solver import Model, entails, equivalent, is_sat, split

__all__ = [
    "FALSE",
    "TRUE",
    "Budget",
    "BudgetError",
    "Formula",
    "LiaError",
    "Lin",
    "Model",
    "dvd",
    "eliminate_quantifiers",
    "entails",
    "eq",
    "eq0",
    "equivalent",
    "ge0",
    "implies",
    "is_sat",
    "land",
    "le",
    "lnot",
    "lor",
    "lt",
    "ne",
    "nnf",
    "parse_formula",
    "project",
    "rename",
    "simplify",
    "split",
    "subst",
    "to_str",
]
