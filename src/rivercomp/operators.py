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

with s_0 = √(1/n) and s_j = √(2/n) otherwise.  ``separable_parts`` and
``dct_basis`` expose Lx, λ and C, so I - dt·L can be solved as n
independent tridiagonal systems along x, one per y-mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .errors import ConfigError, GridResolutionError
from .grid import Grid

__all__ = [
    "check_peclet",
    "TransportOperator",
    "assemble_transport",
    "assemble_transport_2d",
    "transport_for",
    "face_fluxes",
    "separable_parts",
    "dct_basis",
]


@dataclass(frozen=True)
class TransportOperator:
    grid: Grid
    d: float
    alpha: float
    matrix: sparse.csr_matrix
    peclet: float

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(values, dtype=float)


def check_peclet(grid: Grid, d: float, alpha: float) -> float:
    if d <= 0.0:
        raise ConfigError(f"diffusion rate must be positive, got d={d}")
    peclet = grid.h * abs(alpha) / d
    if peclet >= 2.0:
        n_min = math.floor((grid.b - grid.a) * abs(alpha) / (2.0 * d)) + 1
        raise GridResolutionError(peclet, n_min)
    return peclet


def _tridiagonal(n: int, h: float, d: float, alpha: float) -> sparse.csr_matrix:
    diff = d / (h * h)
    drift = alpha / (2.0 * h)

    lower = np.full(n - 1, diff + drift)
    upper = np.full(n - 1, diff - drift)
    diag = np.full(n, -2.0 * diff)
    # Zero-flux faces: the boundary rows see only one face.
    diag[0] = -diff - drift
    diag[-1] = -diff + drift
    return sparse.diags([lower, diag, upper], offsets=[-1, 0, 1], format="csr")


def assemble_transport(grid: Grid, d: float, alpha: float) -> TransportOperator:
    """Assemble the 1-D drift-diffusion operator on ``grid``."""
    if grid.dim != 1:
        raise ConfigError("assemble_transport expects a 1-D grid; use assemble_transport_2d")
    peclet = check_peclet(grid, d, alpha)
    matrix = _tridiagonal(grid.n, grid.h, d, alpha)
    return TransportOperator(grid=grid, d=d, alpha=alpha, matrix=matrix, peclet=peclet)


def assemble_transport_2d(grid: Grid, d: float, alpha: float) -> TransportOperator:
    """Assemble the 2-D operator: drift-diffusion along x, diffusion along y."""
    if grid.dim != 2:
        raise ConfigError("assemble_transport_2d expects a 2-D grid")
    peclet = check_peclet(grid, d, alpha)
    n, h = grid.n, grid.h
    lx = _tridiagonal(n, h, d, alpha)
    ly = _tridiagonal(n, h, d, 0.0)
    eye = sparse.identity(n, format="csr")
    matrix = (sparse.kron(eye, lx) + sparse.kron(ly, eye)).tocsr()
    return TransportOperator(grid=grid, d=d, alpha=alpha, matrix=matrix, peclet=peclet)


def transport_for(grid: Grid, d: float, alpha: float) -> TransportOperator:
    """Dimension-dispatching convenience used throughout the package."""
    if grid.dim == 1:
        return assemble_transport(grid, d, alpha)
    return assemble_transport_2d(grid, d, alpha)


def separable_parts(op: TransportOperator) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Lx and the eigenvalues λ of Ly for a 2-D operator L = I⊗Lx + Ly⊗I."""
    if op.grid.dim != 2:
        raise ConfigError("separable_parts expects a 2-D operator")
    n, h = op.grid.n, op.grid.h
    lam = -(4.0 * op.d / (h * h)) * np.sin(0.5 * np.pi * np.arange(n) / n) ** 2
    return _tridiagonal(n, h, op.d, op.alpha), lam


def dct_basis(n: int) -> np.ndarray:
    """The orthonormal DCT-II matrix C; row j is the j-th Neumann y-mode."""
    j = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    c = np.sqrt(2.0 / n) * np.cos(np.pi * j * (k + 0.5) / n)
    c[0] = np.sqrt(1.0 / n)
    return c


def face_fluxes(op: TransportOperator, values: np.ndarray) -> np.ndarray:
    """The n+1 face fluxes d·u_x - alpha·u underlying a 1-D operator row.

    Both boundary faces carry exactly zero by construction.  Useful for
    flux-sign diagnostics and for boundary terms of integral identities,
    where the face value is second-order accurate.
    """
    if op.grid.dim != 1:
        raise ConfigError("face_fluxes is defined for 1-D operators")
    u = np.asarray(values, dtype=float)
    h = op.grid.h
    fluxes = np.zeros(op.grid.n + 1)
    fluxes[1:-1] = op.d * np.diff(u) / h - op.alpha * 0.5 * (u[:-1] + u[1:])
    return fluxes
