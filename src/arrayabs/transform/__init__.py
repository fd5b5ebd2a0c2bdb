"""Array-to-scalar program translation."""

from .config import ArrayCells, IndexConfig, ObsFlag, ObserverSpec, TransformError
from .core import Cell, ScalarProgram, transform_program

__all__ = [
    "ArrayCells",
    "Cell",
    "IndexConfig",
    "ObsFlag",
    "ObserverSpec",
    "ScalarProgram",
    "TransformError",
    "transform_program",
]
