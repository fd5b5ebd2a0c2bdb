"""Array-to-scalar program translation."""

from .config import ArrayCells, IndexConfig, ObsFlag, ObserverSpec, TransformError
from .core import (
    Cell,
    ScalarProgram,
    cells_for,
    imp,
    index_var,
    init_var,
    transform_program,
    transform_read,
    transform_write,
    value_var,
)

__all__ = [
    "ArrayCells",
    "Cell",
    "IndexConfig",
    "ObsFlag",
    "ObserverSpec",
    "ScalarProgram",
    "TransformError",
    "cells_for",
    "imp",
    "index_var",
    "init_var",
    "transform_program",
    "transform_read",
    "transform_write",
    "value_var",
]
