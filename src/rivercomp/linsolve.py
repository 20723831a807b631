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
I - dt·blockdiag(L_1, ..., L_S), the species' fields stacked, with one of
four strategies (its ``name``).  Each exposes the positive diagonal it
solves in as ``scale``: ``solve(c)`` returns z with
S⁻¹·(I - dt·L)·S·z = c for S = diag(``scale``), so x = S·z solves the
system for b = S·c.  ``scale`` is the symmetrizer for
``"symmetrized"`` and 1.0 (S = I) for the others, which solve in field
units.

- ``"symmetrized"`` (1-D, ``SymmetrizedSolve``): a diagonal scaling S
  makes each block symmetric, S⁻¹·(I - dt·L)·S, a symmetric positive
  definite tridiagonal matrix; the stack is factored once as LDLᵀ
  (``pttrf``) and a solve is one ``pttrs`` over S·n rows, in place.
  The stepper keeps its state in these coordinates, so no scaling runs
  per step.  The LDLᵀ sweeps carry no chain of dependent divides (two
  species on 256 cells: about 5 µs, against 9–10 µs for ``gttrs``, on a
  2-core VM).
- ``"banded"`` (1-D): the species' tridiagonal systems stacked into one
  with zero coupling entries, one ``Factorization``; a solve is one
  ``gttrs`` over S·n rows.
- ``"diagonal"`` (2-D, ``DiagonalSolve``): fast diagonalization (Lynch,
  Rice & Thomas 1964) along both axes.  The DCT diagonalizes Ly; the
  scaling S makes Lx symmetric, S⁻¹·Lx·S = Q·diag(θ)·Qᵀ, so
  Lx = V·diag(θ)·W with V = S·Q, W = Qᵀ·S⁻¹.  A solve is four batched
  n×n matrix products and one elementwise product with the precomputed
  reciprocal denominators: about 8·S·n³ flops and no dependent chain
  (two species on 64×64: about 120 µs, against 230 µs for the
  modal-banded solve, on a 2-core VM).
- ``"modal-banded"`` (2-D, ``SeparableSolve``): the DCT along y, then the
  tridiagonal block I - dt·Lx - dt·λ_j·I of every y-mode stacked and
  factored like the 1-D systems.  A solve is two DCT products and one
  ``gttrs`` over S·n² rows, a chain of dependent row operations.

S carries the off-diagonal ratios of L (1-D) or Lx (2-D),
s_{i+1}/s_i = √(l_i/u_i) (``_symmetrizer``), so its spread
max(s)/min(s) grows like exp(|α|·(b - a)/(2d)).  In 2-D it is the
condition number of V and W, and the diagonal solve's rounding error
grows with it.  In 1-D the matrix the symmetrized solve inverts,
S·B·S⁻¹ with B rounded, differs from I - dt·L by a few ε relative to each
entry (about (2 + ln(spread))·ε/2 from the rounding of s), so
S·``solve``(S⁻¹·b) agrees with ``solve_banded`` componentwise to
rounding, not bitwise.  The symmetric strategies are used only while the
spread of every species stays within ``MAX_SYMMETRIZER_SPREAD``;
drift-dominated input goes to the banded ones.  The 2-D solves agree with sparse LU to rounding.

Every solver reads an operator's bands, and in 2-D its ``y_modes``; the
2-D steady and eigen systems alone read its sparse matrix and go to
``sparse_lu``.  A singular matrix raises ``SolverError`` when it is
factored.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal, lapack

from .errors import SolverError
from .operators import TransportOperator, dct_basis

__all__ = [
    "DiagonalSolve",
    "Factorization",
    "MAX_SYMMETRIZER_SPREAD",
    "SeparableSolve",
    "SymmetrizedSolve",
    "factor_shifted",
    "implicit_solver",
    "sparse_lu",
]

# Largest symmetrizer spread the symmetric solves accept.  Against the
# bounds of tests/test_linsolve.py::test_separable_solve_matches_splu, the
# diagonal solve's worst residual over 200 random draws grew with the
# spread: 0.12 of the bound up to spread 10, 0.41 up to 100, over 1 near
# 300; the modal-banded solve stayed at 0.07 at any spread.  At 10 the
# forward error (0.02 of its bound) matches the modal-banded solve's, and
# |α|/d up to about 4.6 on a unit domain still qualifies.  The 1-D
# symmetrized solve takes the same limit: within it, its worst over 3,000
# random draws was 2.0ε of the componentwise bound A⁻¹(|A||x|), a quarter
# of the bound in tests/test_linsolve.py.
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

    name = "banded"
    scale = 1.0  # as an ``implicit_solver`` strategy: it solves in field units

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

    name = "modal-banded"
    scale = 1.0

    def __init__(self, ops: tuple[TransportOperator, ...], dt: float):
        n = ops[0].grid.n
        self._shape = (len(ops), n, n)
        self._basis = dct_basis(n)
        blocks = [_implicit_blocks(op.bands, op.y_modes, dt) for op in ops]
        self._modal = _stack(*(np.stack(band) for band in zip(*blocks)))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        modal = np.matmul(self._basis, rhs.reshape(self._shape))
        x = self._modal.solve(modal.ravel())
        return np.matmul(self._basis.T, x.reshape(self._shape)).ravel()


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


class SymmetrizedSolve:
    """A reusable solve of I - dt·blockdiag(L_1, ..., L_S) for 1-D operators.

    With S = diag(s) from ``_symmetrizer``, B = S⁻¹·(I - dt·L)·S has the
    diagonal 1 - dt·diag and both off-diagonals -dt·√(lower·upper).  It
    is similar to the M-matrix I - dt·L, so it is a symmetric positive
    definite M-matrix.  The species' blocks are stacked with zero
    coupling entries and factored once as LDLᵀ.  The solve works in the
    scaled coordinates: ``solve(c)`` is z = ``pttrs``(c), the solution of
    B·z = c, so the solution of (I - dt·L)·x = b is x = s·z for c = b/s
    (``scale`` is the stacked s).  L's factors are nonpositive and D's
    pivots positive, so on a nonnegative right-hand side every operation
    adds a nonnegative term or divides by a pivot: the solution is
    nonnegative in floating point, as with ``gttrs``.
    """

    name = "symmetrized"

    def __init__(self, ops: tuple[TransportOperator, ...], dt: float):
        s, diag, off = [], [], []
        for op in ops:
            lower, d, upper = op.bands
            s.append(_symmetrizer(op.bands))
            diag.append(1.0 - dt * d)
            off.append(np.append(-dt * np.sqrt(lower * upper), 0.0))
        self.scale = np.concatenate(s)
        *self._factors, info = lapack.dpttrf(np.concatenate(diag), np.concatenate(off)[:-1])
        if info > 0:
            raise SolverError(f"symmetrized matrix is not positive definite (row {info})")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """z with B·z = ``rhs``, written over ``rhs`` (a contiguous float array) and returned."""
        z, _ = lapack.dpttrs(*self._factors, rhs, overwrite_b=1)
        return z


class DiagonalSolve:
    """A reusable solve of I - dt·blockdiag(L_1, ..., L_S) for 2-D operators.

    Each L_s = I⊗Lx_s + Ly_s⊗I; with Ly_s = Cᵀ·diag(λ_s)·C and
    Lx_s = V_s·diag(θ_s)·W_s (see the module docstring),

        X_s = Cᵀ·[(C·R_s·W_sᵀ) · 1/(1 - dt·(λ_sj + θ_si))]·V_sᵀ

    on the (species, y, x) view of the stacked flat x-fastest fields,
    with the centred s of ``_symmetrizer``; the reciprocals are formed
    once here.  The intermediate products go to two work arrays reused
    across solves; the solution is a new array.
    """

    name = "diagonal"
    scale = 1.0

    def __init__(self, ops: tuple[TransportOperator, ...], dt: float):
        n = ops[0].grid.n
        self._shape = (len(ops), n, n)
        self._basis = dct_basis(n)
        v_t, w_t, den = [], [], []
        for op in ops:
            s = _symmetrizer(op.bands)
            lower, diag, upper = op.bands
            theta, q = eigh_tridiagonal(diag, np.sqrt(lower * upper))
            v_t.append((s[:, None] * q).T)
            w_t.append(q / s[:, None])
            den.append(1.0 - dt * (op.y_modes[:, None] + theta[None, :]))
        self._v_t, self._w_t, self._inv_den = np.stack(v_t), np.stack(w_t), 1.0 / np.stack(den)
        self._work = np.empty((2, *self._shape))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        left, modal = self._work
        np.matmul(self._basis, rhs.reshape(self._shape), out=left)
        np.matmul(left, self._w_t, out=modal)
        np.multiply(modal, self._inv_den, out=modal)
        np.matmul(self._basis.T, modal, out=left)
        return np.matmul(left, self._v_t).ravel()


def implicit_solver(
    ops: tuple[TransportOperator, ...], dt: float
) -> SymmetrizedSolve | Factorization | DiagonalSolve | SeparableSolve:
    """A reusable solve of I - dt·blockdiag(L_1, ..., L_S) for operators on one grid.

    The right-hand side stacks the species' fields divided by the
    strategy's ``scale`` (see the module docstring); the solve may write
    over it and return it.  When every species' symmetrizer spread (of L
    in 1-D, of Lx in 2-D) is at most ``MAX_SYMMETRIZER_SPREAD`` it is
    ``SymmetrizedSolve`` in 1-D and ``DiagonalSolve`` in 2-D.  Otherwise
    it is, in 1-D, one stacked tridiagonal ``Factorization`` whose
    coupling entries are zero, so it is bitwise equal to solving the
    species apart, and in 2-D ``SeparableSolve``.
    """
    symmetrizers = (_symmetrizer(op.bands) for op in ops)
    symmetric = all(s.max() / s.min() <= MAX_SYMMETRIZER_SPREAD for s in symmetrizers)
    if ops[0].grid.dim == 2:
        return DiagonalSolve(ops, dt) if symmetric else SeparableSolve(ops, dt)
    if symmetric:
        return SymmetrizedSolve(ops, dt)
    blocks = [_implicit_blocks(op.bands, np.zeros(1), dt) for op in ops]
    return _stack(*(np.concatenate(band) for band in zip(*blocks)))
