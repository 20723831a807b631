"""Factor-once linear solves for the matrices this package builds.

Every 1-D system here is tridiagonal and is factored straight from its
three bands, never from a sparse matrix: ``Factorization`` runs LAPACK's
``gttrf`` once and every solve is one ``gttrs`` sweep.
``factor_shifted`` forms the bands of shift·I + scale·(L + diag(p)) from a
1-D operator's bands (the steady Newton and march systems, the eigen
shifts); ``implicit_solver`` stacks the species' I - dt·L into one
tridiagonal system with zero coupling entries for the time stepper.  For
the column-dominant M-matrices the stepper builds no row is interchanged,
and the solve performs ``gtsv``'s operations, so it is bitwise equal to
``scipy.linalg.solve_banded``.

The stepper's 2-D system is solved in modal form by ``SeparableSolve``
(fast diagonalization, Lynch, Rice & Thomas 1964): the DCT along y turns
each species' I - dt·L into one tridiagonal block I - dt·Lx - dt·λ_j·I
per y-mode, stacked and factored like the 1-D ones.  A solve is one DCT,
one ``gttrs`` and one inverse DCT; it agrees with sparse LU to rounding.

The 2-D steady and eigen systems, and tridiagonal systems of fewer than
three rows, go to ``sparse_lu``.  A singular matrix raises
``SolverError`` when it is factored.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import SolverError
from .operators import TransportOperator, dct_basis, separable_parts

__all__ = ["Factorization", "SeparableSolve", "factor_shifted", "implicit_solver", "sparse_lu"]

# scipy's gttrf wrapper rejects systems of fewer rows; they go to sparse LU.
_MIN_TRIDIAGONAL_ROWS = 3


def sparse_lu(matrix: sparse.spmatrix) -> spla.SuperLU:
    """A reusable sparse LU factorization of ``matrix``."""
    try:
        return spla.splu(matrix.tocsc())
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from None


class Factorization:
    """A reusable solve of the tridiagonal system with bands (diag, lower, upper).

    ``lower[i]`` is the entry at row i + 1, column i; ``upper[i]`` the
    entry at row i, column i + 1.  The bands are copied, never written.
    """

    def __init__(self, diag: np.ndarray, lower: np.ndarray, upper: np.ndarray):
        n = len(diag)
        self._lu = None
        if n < _MIN_TRIDIAGONAL_ROWS:
            self._lu = sparse_lu(sparse.diags([lower, diag, upper], [-1, 0, 1], shape=(n, n)))
            return
        *self._factors, info = lapack.dgttrf(lower, diag, upper)
        if info > 0:
            raise SolverError(f"tridiagonal matrix is singular (zero pivot in row {info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is not None:
            return self._lu.solve(rhs)
        x, _ = lapack.dgttrs(*self._factors, rhs)
        return x


def factor_shifted(
    op: TransportOperator,
    shift: float = 0.0,
    scale: float = 1.0,
    potential: np.ndarray | None = None,
) -> Factorization | spla.SuperLU:
    """Factor shift·I + scale·(L + diag(potential)) for the operator L of ``op``.

    A 1-D operator is factored from its bands; a 2-D one by sparse LU.
    Either way the diagonal is formed as shift + scale·(d + p) and the
    off-diagonals as scale·l, scale·u, with no other rounding.
    """

    def shifted(diag: np.ndarray) -> np.ndarray:
        return shift + scale * (diag if potential is None else diag + potential)

    if op.bands is not None:
        lower, diag, upper = op.bands
        return Factorization(shifted(diag), scale * lower, scale * upper)
    diag = op.matrix.diagonal()
    off = op.matrix - sparse.diags(diag)
    return sparse_lu(scale * off + sparse.diags(shifted(diag)))


def _stack(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> Factorization:
    """Factor row-aligned tridiagonal blocks (rows along the last axis) as one system.

    ``lower[..., i]`` couples row i to row i - 1 of its block and
    ``upper[..., i]`` to row i + 1; the entries that would couple
    neighbouring blocks must be zero.
    """
    return Factorization(diag.ravel(), lower.ravel()[1:], upper.ravel()[:-1])


def _implicit_blocks(bands, lam: np.ndarray, dt: float):
    """Row-aligned bands of the blocks I - dt·(T + λ_j·I), one per λ_j, of a tridiagonal T."""
    lower, diag, upper = bands
    shape = (len(lam), len(diag))
    lo, up = np.zeros(shape), np.zeros(shape)
    lo[:, 1:] = -dt * lower
    up[:, :-1] = -dt * upper
    return lo, 1.0 - dt * (diag[None, :] + lam[:, None]), up


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
        blocks = [_implicit_blocks(*separable_parts(op), dt) for op in ops]
        self._modal = _stack(*(np.stack(band) for band in zip(*blocks)))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        modal = np.matmul(self._basis, rhs.reshape(self._shape))
        x = self._modal.solve(modal.ravel())
        return np.matmul(self._basis.T, x.reshape(self._shape)).ravel()


def implicit_solver(
    ops: tuple[TransportOperator, ...], dt: float
) -> Factorization | SeparableSolve:
    """A reusable solve of I - dt·blockdiag(L_1, ..., L_S) for operators on one grid.

    The right-hand side stacks the species' fields.  In 1-D the stack is
    one tridiagonal system whose coupling entries are zero, so it is
    bitwise equal to solving the species apart; in 2-D see
    ``SeparableSolve``.
    """
    if ops[0].bands is None:
        return SeparableSolve(ops, dt)
    blocks = [_implicit_blocks(op.bands, np.zeros(1), dt) for op in ops]
    return _stack(*(np.concatenate(band) for band in zip(*blocks)))
