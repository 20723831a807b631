"""Factor-once linear solves for the matrices this package builds.

1-D transport matrices (and block-diagonal stacks of them) are
tridiagonal: LAPACK's ``gttrf`` factors them once with partial pivoting
and every solve is one ``gttrs`` sweep.  For the column-dominant
M-matrices the stepper builds no row is interchanged, and the solve
performs the same operations as ``gtsv`` (``scipy.linalg.solve_banded``),
so results are bitwise equal to it.  Everything else (2-D Kronecker sums,
coupled Newton systems, tridiagonal systems of fewer than three rows)
goes through a sparse LU factorization that is reused across solves.

A singular matrix raises ``SolverError`` when it is factored.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import SolverError

__all__ = ["Factorization", "factorize"]

# scipy's gttrf wrapper rejects systems of fewer rows; factorize sends
# them to the sparse path.
_MIN_TRIDIAGONAL_ROWS = 3


class Factorization:
    """A reusable solve for A x = b; ``banded`` selects the tridiagonal path."""

    def __init__(self, matrix: sparse.spmatrix, banded: bool):
        self._banded = banded
        if banded:
            if np.any(np.abs(matrix.todia().offsets) > 1):
                raise SolverError("banded factorization expects a tridiagonal matrix")
            dl, d, du = (matrix.diagonal(k) for k in (-1, 0, 1))
            *self._factors, info = lapack.dgttrf(
                dl, d, du, overwrite_dl=True, overwrite_d=True, overwrite_du=True
            )
            if info > 0:
                raise SolverError(f"tridiagonal matrix is singular (zero pivot in row {info})")
        else:
            try:
                self._lu = spla.splu(matrix.tocsc())
            except RuntimeError as exc:
                raise SolverError(f"sparse factorization failed: {exc}") from None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._banded:
            x, _ = lapack.dgttrs(*self._factors, rhs)
            return x
        return self._lu.solve(rhs)


def factorize(matrix: sparse.spmatrix) -> Factorization:
    """Pick the cheapest factorization the sparsity pattern allows."""
    m = matrix.tocoo()
    banded = (
        m.shape[0] == m.shape[1] >= _MIN_TRIDIAGONAL_ROWS
        and np.all(np.abs(m.row - m.col) <= 1)
    )
    return Factorization(matrix, banded=bool(banded))
