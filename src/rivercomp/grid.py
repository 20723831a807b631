"""Uniform cell-centered grids and scalar fields living on them.

1-D grids cover [a, b] with n cells of width h = (b - a)/n; cell centers
sit at a + (i + 1/2) h.  2-D grids are the tensor product of the same
interval along both axes with n cells per axis.  Field values are stored
flat, x-fastest (row index iy * n + ix in 2-D), which is the ordering
every operator matrix in this package uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fieldexpr import compile_field_expression

__all__ = ["Grid", "Field", "make_grid", "sample_expression"]


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


@dataclass
class Field:
    """A scalar field sampled at cell centers (flat storage)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise ConfigError(
                f"field shape {self.values.shape} does not match the grid "
                f"({self.grid.size} cells)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("field contains non-finite values")

    @property
    def mass(self) -> float:
        """Cell-volume weighted total, i.e. the midpoint-rule integral."""
        return self.grid.cell_volume * float(self.values.sum())


def make_grid(dim: int, a: float, b: float, n: int) -> Grid:
    return Grid(dim=dim, a=a, b=b, n=n)


def sample_expression(grid: Grid, text: str) -> Field:
    """Evaluate a field expression at the cell centers of ``grid``."""
    names = ("x",) if grid.dim == 1 else ("x", "y")
    expr = compile_field_expression(text, names)
    x, y = grid.coordinate_arrays()
    return Field(grid, expr(x, y))
