"""Uniform cell-centered grids and coefficient sampling on them.

1-D grids cover [a, b] with n cells of width h = (b - a)/n; cell centers
sit at a + (i + 1/2) h.  2-D grids are the tensor product of the same
interval along both axes with n cells per axis.  A field on a grid is a
plain float array of shape (grid.size,), stored flat, x-fastest (row
index iy * n + ix in 2-D), which is the ordering every operator matrix
in this package uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fieldexpr import compile_field_expression

__all__ = ["Grid", "sample_expression"]


@dataclass(frozen=True)
class Grid:
    dim: int
    a: float
    b: float
    n: int  # cells per axis

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ConfigError(f"grid dimension must be 1 or 2, got {self.dim}")
        if self.n < 3:
            raise ConfigError(f"need at least 3 cells per axis, got n={self.n}")
        if not self.b > self.a:
            raise ConfigError(f"empty domain: [{self.a}, {self.b}]")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        return self.a + (np.arange(self.n) + 0.5) * self.h

    @property
    def size(self) -> int:
        """Total number of cells (n in 1-D, n*n in 2-D)."""
        return self.n if self.dim == 1 else self.n * self.n

    @property
    def cell_volume(self) -> float:
        return self.h if self.dim == 1 else self.h * self.h

    def coordinate_arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Flat coordinate arrays (x,) in 1-D or (x, y) in 2-D, x-fastest."""
        c = self.centers
        if self.dim == 1:
            return c, None
        yy, xx = np.meshgrid(c, c, indexing="ij")
        return xx.ravel(), yy.ravel()


def sample_expression(grid: Grid, text: str) -> np.ndarray:
    """Evaluate a field expression at the cell centers of ``grid``; the
    flat values, refused with ``ConfigError`` where any is not finite."""
    names = ("x",) if grid.dim == 1 else ("x", "y")
    x, y = grid.coordinate_arrays()
    values = compile_field_expression(text, names)(x, y)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"field expression {text!r} has non-finite values on the grid")
    return values
