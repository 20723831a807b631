"""Conservative finite-volume transport operators with no-flux boundaries.

The 1-D operator discretizes  (d u_x - alpha u)_x  on cell averages via
face fluxes

    F_{i+1/2} = d (u_{i+1} - u_i)/h - alpha (u_i + u_{i+1})/2,

with F = 0 at both domain faces, and (L u)_i = (F_{i+1/2} - F_{i-1/2})/h.
The flux telescopes, so every column of L sums to zero exactly: the step
scheme conserves mass up to the reaction term, by construction, not up to
discretization error.

Off-diagonal entries stay nonnegative iff the grid Peclet number
h·|alpha|/d is below 2; assembly rejects coarser grids outright since the
positivity and comparison arguments downstream depend on that sign
structure.

The 2-D operator is the Kronecker sum of a 1-D drift-diffusion operator
along x and a pure-diffusion operator along y (drift acts downstream
only):  L = I⊗Lx + Ly⊗I.  Ly is the cell-centred Neumann Laplacian, which
the orthonormal DCT-II diagonalizes exactly:

    Ly = Cᵀ diag(λ) C,   C[j, k] = s_j cos(π j (k + 1/2) / n),
    λ_j = -(4d/h²) sin²(π j / 2n),

with s_0 = √(1/n) and s_j = √(2/n) otherwise.  ``dct_basis`` gives C.

Every operator is its three bands (lower, diag, upper): L's in 1-D,
Lx's in 2-D, where ``y_modes`` adds λ.  The steady, eigen and time
stepping layers factor shifted and scaled copies of the 1-D bands as plain
tridiagonal systems, and ``band_matvec`` applies them; the 2-D step
solves work from Lx's bands and λ alone.  Bands and λ are shared by every
caller, so they are read-only.  The sparse ``matrix`` is built on first
read, in either dimension, for the 2-D steady and eigen systems and for
the oracles that want one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from .errors import ConfigError, GridResolutionError
from .grid import Grid

__all__ = [
    "check_peclet",
    "TransportOperator",
    "transport_for",
    "band_matvec",
    "dct_basis",
]


Bands = tuple[np.ndarray, np.ndarray, np.ndarray]


def band_matvec(bands: Bands, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """y = T·x for the tridiagonal T with bands (lower, diag, upper).

    Each row sums its terms left to right, as ``csr_matvec`` does over a
    row of the CSR matrix (IEEE addition commutes, so d·x + l·x is
    l·x + d·x bitwise), and the result is bitwise equal to ``T @ x`` (up
    to the sign of an exact zero).  ``out``, if given, receives y and
    must not share memory with ``x``.
    """
    lower, diag, upper = bands
    y = np.multiply(diag, x, out=out)
    y[1:] += lower * x[:-1]
    y[:-1] += upper * x[1:]
    return y


@dataclass(frozen=True)
class TransportOperator:
    grid: Grid
    d: float
    alpha: float
    peclet: float
    bands: Bands  # (lower, diag, upper) of L in 1-D, of Lx in 2-D

    @cached_property
    def y_modes(self) -> np.ndarray:
        """The eigenvalues λ of Ly, one per DCT mode, of a 2-D operator."""
        n, h = self.grid.n, self.grid.h
        lam = -(4.0 * self.d / (h * h)) * np.sin(0.5 * np.pi * np.arange(n) / n) ** 2
        lam.setflags(write=False)
        return lam

    @cached_property
    def matrix(self) -> sparse.csr_matrix:
        """L as a CSR matrix, built on first read: I⊗Lx + Ly⊗I in 2-D."""
        if self.grid.dim == 1:
            return _matrix(self.bands)
        n = self.grid.n
        ly = _matrix(_tridiagonal(n, self.grid.h, self.d, 0.0))
        eye = sparse.identity(n, format="csr")
        return (sparse.kron(eye, _matrix(self.bands)) + sparse.kron(ly, eye)).tocsr()

    def apply(self, values: np.ndarray) -> np.ndarray:
        x = np.asarray(values, dtype=float)
        return band_matvec(self.bands, x) if self.grid.dim == 1 else self.matrix @ x


def check_peclet(grid: Grid, d: float, alpha: float) -> float:
    if d <= 0.0:
        raise ConfigError(f"diffusion rate must be positive, got d={d}")
    peclet = grid.h * abs(alpha) / d
    if peclet >= 2.0:
        n_min = math.floor((grid.b - grid.a) * abs(alpha) / (2.0 * d)) + 1
        raise GridResolutionError(peclet, n_min)
    return peclet


def _tridiagonal(n: int, h: float, d: float, alpha: float) -> Bands:
    diff = d / (h * h)
    drift = alpha / (2.0 * h)

    lower = np.full(n - 1, diff + drift)
    upper = np.full(n - 1, diff - drift)
    diag = np.full(n, -2.0 * diff)
    # Zero-flux faces: the boundary rows see only one face.
    diag[0] = -diff - drift
    diag[-1] = -diff + drift
    for band in (lower, diag, upper):
        band.setflags(write=False)
    return lower, diag, upper


def _matrix(bands: Bands) -> sparse.csr_matrix:
    return sparse.diags(list(bands), offsets=[-1, 0, 1], format="csr")


def transport_for(grid: Grid, d: float, alpha: float) -> TransportOperator:
    """The drift-diffusion operator on ``grid``: drift along x, diffusion along both axes."""
    peclet = check_peclet(grid, d, alpha)
    bands = _tridiagonal(grid.n, grid.h, d, alpha)
    return TransportOperator(grid=grid, d=d, alpha=alpha, peclet=peclet, bands=bands)


def dct_basis(n: int) -> np.ndarray:
    """The orthonormal DCT-II matrix C; row j is the j-th Neumann y-mode."""
    j = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    c = np.sqrt(2.0 / n) * np.cos(np.pi * j * (k + 0.5) / n)
    c[0] = np.sqrt(1.0 / n)
    return c
