"""Factor-once linear solves for the matrices this package builds.

1-D transport matrices (and block-diagonal stacks of them) are
tridiagonal: LAPACK's ``gttrf`` factors them once with partial pivoting
and every solve is one ``gttrs`` sweep.  For the column-dominant
M-matrices the stepper builds no row is interchanged, and the solve
performs the same operations as ``gtsv`` (``scipy.linalg.solve_banded``),
so results are bitwise equal to it.

The stepper's 2-D system I - dt·blockdiag(L_1, L_2) is solved in modal
form by ``SeparableSolve`` (fast diagonalization, Lynch, Rice & Thomas
1964): the DCT along y turns each species' I - dt·L into one tridiagonal
block I - dt·Lx - dt·λ_j·I per y-mode, all of which stack into one
tridiagonal system with zero coupling entries, factored once like the
1-D ones.  A solve is one DCT, one ``gttrs`` and one inverse DCT; it
agrees with sparse LU to rounding, not bitwise.

Everything else (coupled Newton systems, other 2-D systems, tridiagonal
systems of fewer than three rows) goes through a sparse LU factorization
that is reused across solves.

A singular matrix raises ``SolverError`` when it is factored.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import SolverError
from .operators import TransportOperator, dct_basis, separable_parts

__all__ = ["Factorization", "SeparableSolve", "factorize"]

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


class SeparableSolve:
    """A reusable solve of I - dt·blockdiag(L_1, ..., L_S) for 2-D operators.

    Each L_s = I⊗Lx_s + Ly_s⊗I (see ``operators``); the right-hand side
    stacks the species' flat x-fastest fields.  After the DCT along y the
    rows of species s, mode j form the block I - dt·Lx_s - dt·λ_sj·I, a
    column-dominant M-matrix like the 1-D ones, so the stacked system goes
    to the banded ``Factorization``.
    """

    def __init__(self, ops: tuple[TransportOperator, ...], dt: float):
        n = ops[0].grid.n
        self._shape = (len(ops), n, n)
        self._basis = dct_basis(n)
        # Row-aligned bands: lower[s, j, i] couples row i to row i - 1 of
        # block (s, j), upper[s, j, i] to row i + 1; the entries that would
        # couple neighbouring blocks stay zero.
        lower, diag, upper = np.zeros(self._shape), np.empty(self._shape), np.zeros(self._shape)
        for s, op in enumerate(ops):
            lx, lam = separable_parts(op)
            lower[s, :, 1:] = -dt * lx.diagonal(-1)
            diag[s] = 1.0 - dt * (lx.diagonal()[None, :] + lam[:, None])
            upper[s, :, :-1] = -dt * lx.diagonal(1)
        stacked = sparse.diags(
            [lower.ravel()[1:], diag.ravel(), upper.ravel()[:-1]], offsets=[-1, 0, 1], format="dia"
        )
        self._modal = Factorization(stacked, banded=True)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        modal = np.matmul(self._basis, rhs.reshape(self._shape))
        x = self._modal.solve(modal.ravel())
        return np.matmul(self._basis.T, x.reshape(self._shape)).ravel()
