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
``StepSolve``.  In 1-D each species is one tridiagonal block
I - dt·L_s.  In 2-D, L_s = I⊗Lx_s + Ly_s⊗I and the DCT C along y
diagonalizes Ly_s, so each species splits into one tridiagonal block
I - dt·Lx_s - dt·λ_sj·I per y-mode j.

The solve comes in two kinds, and the stepper names it by
``implicit_solve``:

- ``"symmetrized"``: a diagonal scaling S makes each Lx_s (L_s in 1-D)
  symmetric, S⁻¹·Lx_s·S = T_s, a tridiagonal matrix with the diagonal of
  Lx_s and off-diagonals √(lᵢuᵢ).  S acts along x and C along y, so they
  commute: the solve works in scaled coordinates, ``solve(c)`` writing
  over c the z with S⁻¹·(I - dt·L)·S·z = c; x = S·z solves the system
  for b = S·c.  ``scale`` is the stacked diagonal of S, each species'
  symmetrizer tiled over its y-modes; the stepper keeps its state in
  these coordinates, so no scaling runs per step.  In 1-D the blocks
  I - dt·T_s, symmetric positive definite M-matrices, are stacked with
  zero coupling entries, factored once as LDLᵀ (``pttrf``) and solved by
  ``pttrs`` in place; the LDLᵀ sweeps carry no chain of dependent
  divides (two species on 256 cells: about 5 µs, against 9–10 µs for
  ``gttrs``, on a 2-core VM).  In 2-D each T_s is diagonalized once,
  T_s = Q_s·diag(θ_s)·Q_sᵀ with Q_s orthogonal (``eigh_tridiagonal``;
  fast diagonalization, Lynch, Rice & Thomas 1964), and a solve is
  Cᵀ·(D_s ∘ (C·Z·Q_s))·Q_sᵀ on each species' (y, x) array Z, for the
  reciprocal denominators D_s[j, k] = 1/(1 - dt·(λ_sj + θ_sk)): four
  batched n×n products and one scaling, with no serial sweep (two
  species on 64×64 cells: about 88 µs on a 2-core VM).  θ and λ
  are eigenvalues of generators (≤ 0 up to rounding), so every
  denominator is at least about 1.
- ``"banded"`` (1-D) and ``"modal-banded"`` (2-D): the blocks as they
  are, in field units (``scale`` 1.0), stacked with zero coupling
  entries and factored once by one ``Factorization``.  A solve is one
  sweep over the stacked rows in 1-D and Cᵀ·F⁻¹(C·c) in 2-D: two batched
  n×n products around the sweep.

Every kind's ``solve(c)`` writes its solution over c, a contiguous float64
array; in 1-D it is the bound LAPACK routine itself.

S carries the off-diagonal ratios of L (1-D) or Lx (2-D),
s_{i+1}/s_i = √(l_i/u_i) (``_symmetrizer``), so its spread
max(s)/min(s) grows like exp(|α|·(b - a)/(2d)).  The matrix the 1-D
symmetrized solve inverts, S·B·S⁻¹ with B rounded, differs from each
block by a few ε relative to each entry (about (2 + ln(spread))·ε/2 from
the rounding of s), so S·``solve``(S⁻¹·b) agrees with the banded solve
componentwise to rounding, not bitwise.  The 2-D solve's products
round normwise in z, not componentwise, and S turns that into an error
in field units that grows with the spread: forced to a spread of 800 it
breaks the sparse-LU residual bound of tests/test_linsolve.py.  The
symmetrized solve is used only while the spread of every species stays
within ``MAX_SYMMETRIZER_SPREAD``; drift-dominated input goes to the
banded one.

Every solver reads an operator's bands, and in 2-D its ``y_modes``; the
2-D steady and eigen systems alone read its sparse matrix and go to
``sparse_lu``.  A singular matrix raises ``SolverError`` when it is
factored.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal, lapack

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

# Largest symmetrizer spread the symmetrized solve accepts.  Within it the
# 1-D symmetrized solve's worst over 3,000 random draws was 2.0ε of the
# componentwise bound A⁻¹(|A||x|), a quarter of the bound in
# tests/test_linsolve.py, and the 2-D one's worst over 300 random draws
# (n 3–64) was 0.09 of that file's sparse-LU residual bound, against 0.09
# for the modal-banded solve.  The 2-D error grows with the spread: at a
# spread of 800 it breaks that bound (see the tests).  Raising the limit
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


def _stacked_blocks(bands, modes, dt: float):
    """Row-aligned bands of the blocks I - dt·(T_s + λ·I), one per species s
    (T_s with ``bands``) and λ in its ``modes``, stacked with zero coupling."""
    blocks = []
    for (lower, diag, upper), lam in zip(bands, modes):
        shape = (len(lam), len(diag))
        lo, up = np.zeros(shape), np.zeros(shape)
        lo[:, 1:] = -dt * lower
        up[:, :-1] = -dt * upper
        blocks.append((lo, 1.0 - dt * (diag[None, :] + lam[:, None]), up))
    return tuple(np.stack(band).ravel() for band in zip(*blocks))


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

    ``symmetrizers``, one per species (from ``_symmetrizer``), give the
    symmetrized solve, ``scale`` being S's diagonal (the stacked fields'
    symmetrizers, each tiled over the y-modes): its blocks S⁻¹·block·S
    are factored as LDLᵀ in 1-D and diagonalized in 2-D.  ``None`` stacks
    the blocks, one per species in 1-D and one per species and y-mode in
    2-D, into one ``Factorization``, and ``scale`` is 1.0 (see the module
    docstring).  ``solve(c)`` writes over c the z with
    S⁻¹·(I - dt·L)·S·z = c; in 1-D it is ``pttrs`` or ``gttrs`` bound to
    the factors.  ``name`` is "symmetrized", "banded" or "modal-banded".
    """

    def __init__(
        self,
        ops: tuple[TransportOperator, ...],
        dt: float,
        symmetrizers: list[np.ndarray] | None,
    ):
        grid = ops[0].grid
        modes = [op.y_modes if grid.dim == 2 else np.zeros(1) for op in ops]
        bands = [op.bands for op in ops]
        if symmetrizers is None:
            self.name = "banded" if grid.dim == 1 else "modal-banded"
            self.scale = 1.0
        else:
            self.name = "symmetrized"
            self.scale = np.concatenate([np.tile(s, len(lam)) for s, lam in zip(symmetrizers, modes)])
            bands = [(np.sqrt(lo * up), d, np.sqrt(lo * up)) for lo, d, up in bands]
        if grid.dim == 2:
            self._shape, self._basis = (len(ops), grid.n, grid.n), dct_basis(grid.n)
            self._modal = np.empty(self._shape)
        if symmetrizers is None:
            lower, diag, upper = _stacked_blocks(bands, modes, dt)
            factors = Factorization(diag, lower[1:], upper[:-1])._factors
            self._stacked = partial(lapack.dgttrs, *factors, overwrite_b=1)
            self.solve = self._stacked if grid.dim == 1 else self._modal_solve
        elif grid.dim == 1:
            _, diag, upper = _stacked_blocks(bands, modes, dt)
            d, e, info = lapack.dpttrf(diag, upper[:-1])
            if info > 0:
                raise SolverError(f"symmetrized matrix is not positive definite (row {info})")
            self.solve = partial(lapack.dpttrs, d, e, overwrite_b=1)
        else:
            self._diagonalize(bands, modes, dt)
            self.solve = self._diagonal_solve

    def _modal_solve(self, rhs: np.ndarray) -> None:
        """Cᵀ·F⁻¹(C·``rhs``) on the (species, y, x) view, for the DCT C along y,
        written over ``rhs``; the stacked sweep runs in place on C·``rhs``."""
        rows = rhs.reshape(self._shape)
        np.matmul(self._basis, rows, out=self._modal)
        self._stacked(self._modal.ravel())
        np.matmul(self._basis.T, self._modal, out=rows)

    def _diagonalize(self, bands, modes, dt: float) -> None:
        """Each species' symmetric Lx as Q·diag(θ)·Qᵀ, and the reciprocal denominators."""
        eigen = [eigh_tridiagonal(d, off) for off, d, _ in bands]
        self._q = np.stack([q for _, q in eigen])
        self._qt = self._q.transpose(0, 2, 1)
        self._recip = np.stack(
            [1.0 / (1.0 - dt * (lam[:, None] + theta[None, :])) for (theta, _), lam in zip(eigen, modes)]
        )
        self._spectral = np.empty(self._shape)

    def _diagonal_solve(self, rhs: np.ndarray) -> None:
        """Cᵀ·(D ∘ (C·Z·Q))·Qᵀ for each species' (y, x) array Z of ``rhs``,
        written over ``rhs``."""
        rows = rhs.reshape(self._shape)
        modal, spectral = self._modal, self._spectral
        np.matmul(self._basis, rows, out=modal)
        np.matmul(modal, self._q, out=spectral)
        np.multiply(spectral, self._recip, out=spectral)
        np.matmul(spectral, self._qt, out=modal)
        np.matmul(self._basis.T, modal, out=rows)


def implicit_solver(ops: tuple[TransportOperator, ...], dt: float) -> StepSolve:
    """The time stepper's ``StepSolve`` of I - dt·blockdiag(L_1, ..., L_S).

    It is symmetrized when every species' symmetrizer spread (of L in
    1-D, of Lx in 2-D) is at most ``MAX_SYMMETRIZER_SPREAD``.  Otherwise
    its coupling entries are zero and no row is interchanged, so in 1-D
    it is bitwise equal to solving the species apart.
    """
    symmetrizers = [_symmetrizer(op.bands) for op in ops]
    symmetric = all(s.max() / s.min() <= MAX_SYMMETRIZER_SPREAD for s in symmetrizers)
    return StepSolve(ops, dt, symmetrizers if symmetric else None)
