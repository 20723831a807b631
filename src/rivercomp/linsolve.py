"""Factor-once linear solves for the matrices this package builds.

Every 1-D system here is tridiagonal and is factored straight from its
three bands, never from a sparse matrix: ``Factorization`` runs LAPACK's
``gttrf`` once and every solve is one ``gttrs`` sweep.
``factor_shifted`` forms the bands of shift·I + scale·(L + diag(p)) from a
1-D operator's bands (the steady Newton and march systems, the eigen
shifts).  For the column-dominant M-matrices the stepper builds no row is
interchanged, and the solve performs ``gtsv``'s operations, so it is
bitwise equal to ``scipy.linalg.solve_banded``.

``implicit_solver`` builds the time stepper's solve of
I - dt·blockdiag(L_1, ..., L_S), the species' fields stacked, as one
``StepSolve``; it works the same way in both dimensions.  In 1-D each
species is one tridiagonal block I - dt·L_s.  In 2-D, L_s = I⊗Lx_s +
Ly_s⊗I and the DCT C along y diagonalizes Ly_s, so each species splits
into one tridiagonal block I - dt·Lx_s - dt·λ_sj·I per y-mode j.  The
blocks are stacked with zero coupling entries and factored once, F.  A
solve is F⁻¹·c in 1-D and Cᵀ·F⁻¹(C·c) in 2-D: two batched n×n products
around one sweep over the stacked rows.

The factor comes in two kinds, and the stepper names it by
``implicit_solve``:

- ``"symmetrized"``: a diagonal scaling S makes each block symmetric,
  S⁻¹·block·S, a symmetric positive definite tridiagonal M-matrix with
  off-diagonals -dt·√(lᵢuᵢ).  The stack is factored as LDLᵀ (``pttrf``)
  and solved by ``pttrs``, in place.  S acts along x and C along y, so
  they commute: the solve works in scaled coordinates, ``solve(c)``
  returning z with S⁻¹·(I - dt·L)·S·z = c, and x = S·z solves the system
  for b = S·c.  ``scale`` is the stacked diagonal of S, each species'
  symmetrizer tiled over its y-modes; the stepper keeps its state in
  these coordinates, so no scaling runs per step.  The LDLᵀ sweeps carry
  no chain of dependent divides (two species on 256 cells: about 5 µs,
  against 9–10 µs for ``gttrs``, on a 2-core VM).
- ``"banded"`` (1-D) and ``"modal-banded"`` (2-D): the blocks as they
  are, in field units (``scale`` 1.0), to one ``Factorization``.

S carries the off-diagonal ratios of L (1-D) or Lx (2-D),
s_{i+1}/s_i = √(l_i/u_i) (``_symmetrizer``), so its spread
max(s)/min(s) grows like exp(|α|·(b - a)/(2d)).  The matrix the
symmetrized solve inverts, S·B·S⁻¹ with B rounded, differs from each
block by a few ε relative to each entry (about (2 + ln(spread))·ε/2 from
the rounding of s), so S·``solve``(S⁻¹·b) agrees with the banded solve
componentwise to rounding, not bitwise.  The symmetrized factor is used
only while the spread of every species stays within
``MAX_SYMMETRIZER_SPREAD``; drift-dominated input goes to the banded
one.

Every solver reads an operator's bands, and in 2-D its ``y_modes``; the
2-D steady and eigen systems alone read its sparse matrix and go to
``sparse_lu``.  A singular matrix raises ``SolverError`` when it is
factored.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import SolverError
from .operators import TransportOperator, dct_basis

__all__ = [
    "Factorization",
    "MAX_SYMMETRIZER_SPREAD",
    "StepSolve",
    "factor_shifted",
    "implicit_solver",
    "sparse_lu",
]

# Largest symmetrizer spread the symmetrized factor accepts.  It guards no
# error that grows with the spread: within it the 1-D symmetrized solve's
# worst over 3,000 random draws was 2.0ε of the componentwise bound
# A⁻¹(|A||x|), a quarter of the bound in tests/test_linsolve.py, and the
# 2-D one met that file's sparse-LU bounds on 300 random draws with spreads
# up to 1e8.  The limit keeps every run on the solve it has; raising it
# moves runs to the symmetrized solve and their output by rounding.  |α|/d
# up to about 4.6 on a unit domain qualifies.
MAX_SYMMETRIZER_SPREAD = 10.0


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
    The system has at least three rows (scipy's ``gttrf`` wrapper rejects
    fewer); every grid has n ≥ 3 cells.
    """

    def __init__(self, diag: np.ndarray, lower: np.ndarray, upper: np.ndarray):
        *self._factors, info = lapack.dgttrf(lower, diag, upper)
        if info > 0:
            raise SolverError(f"tridiagonal matrix is singular (zero pivot in row {info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
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

    if op.grid.dim == 1:
        lower, diag, upper = op.bands
        return Factorization(shifted(diag), scale * lower, scale * upper)
    diag = op.matrix.diagonal()
    off = op.matrix - sparse.diags(diag)
    return sparse_lu(scale * off + sparse.diags(shifted(diag)))


def _implicit_blocks(bands, lam: np.ndarray, dt: float):
    """Row-aligned bands of the blocks I - dt·(T + λ_j·I), one per λ_j, of a tridiagonal T."""
    lower, diag, upper = bands
    shape = (len(lam), len(diag))
    lo, up = np.zeros(shape), np.zeros(shape)
    lo[:, 1:] = -dt * lower
    up[:, :-1] = -dt * upper
    return lo, 1.0 - dt * (diag[None, :] + lam[:, None]), up


def _symmetrizer(bands) -> np.ndarray:
    """The diagonal s that makes diag(s)⁻¹·T·diag(s) symmetric, centred.

    T is the tridiagonal matrix with ``bands``:
    s_{i+1} = s_i·√(lower_i/upper_i), real because assembly keeps both
    off-diagonals positive, and scaled so that max(s)·min(s) = 1.  Its
    spread is max(s)/min(s); a spread beyond the float range (above about
    e^1400) reads as inf.
    """
    lower, _, upper = bands
    log_s = np.concatenate(([0.0], np.cumsum(0.5 * np.log(lower / upper))))
    with np.errstate(over="ignore"):
        return np.exp(log_s - 0.5 * (log_s.max() + log_s.min()))


class StepSolve:
    """A reusable solve of I - dt·blockdiag(L_1, ..., L_S) for operators on one grid.

    The species' blocks, one per species in 1-D and one per species and
    y-mode in 2-D, are stacked with zero coupling entries and factored
    once (see the module docstring).  ``symmetric`` factors the
    symmetrized blocks S⁻¹·block·S as LDLᵀ, ``scale`` being S's diagonal
    (the stacked fields' symmetrizers, each tiled over the y-modes);
    otherwise the blocks go to one ``Factorization`` and ``scale`` is 1.0.
    ``solve(c)`` returns z with S⁻¹·(I - dt·L)·S·z = c, and may write over
    c and return it; in 1-D it is the stacked solve itself, so a step
    pays for no other call.  ``name`` is "symmetrized", "banded" (1-D) or
    "modal-banded" (2-D).
    """

    def __init__(self, ops: tuple[TransportOperator, ...], dt: float, symmetric: bool):
        grid = ops[0].grid
        modes = [op.y_modes if grid.dim == 2 else np.zeros(1) for op in ops]
        bands = [op.bands for op in ops]
        if symmetric:
            self.name = "symmetrized"
            s = [np.tile(_symmetrizer(b), len(lam)) for b, lam in zip(bands, modes)]
            self.scale = np.concatenate(s)
            bands = [(np.sqrt(lo * up), d, np.sqrt(lo * up)) for lo, d, up in bands]
        else:
            self.name = "banded" if grid.dim == 1 else "modal-banded"
            self.scale = 1.0
        blocks = [_implicit_blocks(b, lam, dt) for b, lam in zip(bands, modes)]
        lower, diag, upper = (np.stack(band).ravel() for band in zip(*blocks))
        if symmetric:
            *self._factors, info = lapack.dpttrf(diag, upper[:-1])
            if info > 0:
                raise SolverError(f"symmetrized matrix is not positive definite (row {info})")
            self._stacked = self._ldlt_solve
        else:
            self._stacked = Factorization(diag, lower[1:], upper[:-1]).solve
        if grid.dim == 1:
            self.solve = self._stacked
        else:
            self._shape, self._basis = (len(ops), grid.n, grid.n), dct_basis(grid.n)
            self._modal = np.empty(self._shape)
            self.solve = self._modal_solve

    def _ldlt_solve(self, rhs: np.ndarray) -> np.ndarray:
        z, _ = lapack.dpttrs(*self._factors, rhs, overwrite_b=1)
        return z

    def _modal_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Cᵀ·F⁻¹(C·``rhs``) on the (species, y, x) view, for the DCT C along y.

        The solution is written over ``rhs`` (a contiguous float array),
        which is returned.
        """
        rows = rhs.reshape(self._shape)
        modal = np.matmul(self._basis, rows, out=self._modal)
        x = self._stacked(modal.ravel())
        np.matmul(self._basis.T, x.reshape(self._shape), out=rows)
        return rhs


def implicit_solver(ops: tuple[TransportOperator, ...], dt: float) -> StepSolve:
    """The time stepper's ``StepSolve`` of I - dt·blockdiag(L_1, ..., L_S).

    It is symmetric when every species' symmetrizer spread (of L in 1-D,
    of Lx in 2-D) is at most ``MAX_SYMMETRIZER_SPREAD``.  Otherwise its
    coupling entries are zero and no row is interchanged, so in 1-D it is
    bitwise equal to solving the species apart.
    """
    symmetrizers = (_symmetrizer(op.bands) for op in ops)
    symmetric = all(s.max() / s.min() <= MAX_SYMMETRIZER_SPREAD for s in symmetrizers)
    return StepSolve(ops, dt, symmetric)
