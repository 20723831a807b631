"""Principal eigenvalues of transport-plus-potential linearizations.

The matrices here are M = L + diag(p) with L a no-flux transport operator
whose off-diagonals are nonnegative (guaranteed by the grid Peclet guard),
so M + cI is a nonnegative irreducible matrix for a large enough constant
c and Perron-Frobenius applies: there is a real dominant eigenvalue with a
strictly positive eigenvector.

The solver is inverse iteration with a shift kept strictly above the
dominant eigenvalue.  For any positive vector x the quotients (Mx)_i/x_i
bracket the dominant eigenvalue, so shifting at the upper bracket plus a
positive margin makes (shift*I - M) an M-matrix whose inverse maps
positive vectors to positive vectors; the iteration can never lose
positivity, and the bracket tightens as the iterate converges.  The shift
is re-anchored (and the matrix re-factorized) whenever the bracket has
tightened well below the current margin, which turns the usually slow
power-type convergence into a few sharp steps even when the spectral gap
is tiny compared to the matrix norm.

The iteration starts from x = 1 unless the caller passes a strictly
positive start vector ``x0``.  Because the bracket holds for every
positive vector, any such start keeps every guard above intact; a start
near the Perron vector, such as the eigenvector of a neighbouring
parameter value (the predictor step of a continuation method, Allgower
& Georg 1990), gives a tight bracket at once, so the first shift already
sits close to the eigenvalue and the solve takes a few steps and one or
two factorizations.  ``EigenReport.factorizations`` counts the shifts.

Each shift factors shift·I - (L + diag(p)) through
``linsolve.factor_shifted``: from the operator's bands on a 1-D grid,
by sparse LU on a 2-D one.  The products with L + diag(p) behind the
Collatz bracket and the residual go through ``band_matvec`` on a 1-D
grid, so a 1-D eigenpair builds no scipy.sparse object; they are bitwise
equal to products with the CSR matrix, which a 2-D grid still uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .errors import ConfigError, SolverError
from .linsolve import factor_shifted
from .model import EffectiveParams
from .operators import TransportOperator, band_matvec

__all__ = [
    "EigenReport",
    "StabilityVerdict",
    "principal_eigenpair",
    "invasion_potential",
    "semitrivial_stability",
    "eigen_difference_residual",
    "EigenDifferenceReport",
    "TOL_MARGINAL",
    "TOL_EIGEN",
]

# Default half-width of the marginal band about a zero stability index,
# and default residual tolerance of the eigen solves.
TOL_MARGINAL = 1e-7
TOL_EIGEN = 1e-12

# Cap on the inverse-iteration solves of one eigen solve.
_MAX_EIGEN_SOLVES = 10_000
# Residual floor near the rounding level, relative to the matrix sup-norm.
_ROUNDING_FLOOR = 64.0 * np.finfo(float).eps


@dataclass
class EigenReport:
    """Dominant eigenpair of a transport-plus-potential matrix.

    ``growth_rate`` is the dominant (Perron) eigenvalue: positive means a
    small seed of the linearized species grows.  ``stability_index`` is
    its negation, so positive values certify stability.  ``phi`` is the
    strictly positive eigenvector scaled to unit sup-norm.
    ``factorizations`` counts the shifted matrices factored: the first
    shift plus every re-anchor and back-off.
    """

    growth_rate: float
    phi: np.ndarray
    iterations: int
    residual: float
    factorizations: int

    @property
    def stability_index(self) -> float:
        return -self.growth_rate


def _shifted_matvec(op: TransportOperator, p: np.ndarray):
    """x -> (L + diag(p))·x, and the row sums of |L + diag(p)|.

    A 1-D operator works on its bands; a 2-D one on its CSR matrix.  Both
    give the products and row sums the CSR matrix of L + diag(p) gives.
    The 1-D product is written into one work array of this call, so each
    product is overwritten by the next.
    """
    if op.grid.dim == 2:
        matrix = (op.matrix + sparse.diags(p)).tocsr()
        return matrix.__matmul__, np.abs(matrix).sum(axis=1).A1
    lower, diag, upper = op.bands
    bands = (lower, diag + p, upper)
    # Summed as the CSR row reduction sums a row l, d, u: l + (d + u).
    rows = np.abs(bands[1])
    rows[:-1] += np.abs(upper)
    rows[1:] += np.abs(lower)
    work = np.empty(len(diag))
    return lambda x: band_matvec(bands, x, out=work), rows


def principal_eigenpair(
    op: TransportOperator,
    potential: np.ndarray,
    tol: float = TOL_EIGEN,
    x0: np.ndarray | None = None,
) -> EigenReport:
    """Dominant eigenpair of L + diag(potential) by guarded inverse iteration.

    ``tol`` is relative: the iteration stops when the eigen-residual in
    sup-norm drops below tol times the matrix sup-norm (floored near
    machine precision).  Raises SolverError after ``_MAX_EIGEN_SOLVES``
    solves.

    ``x0`` is the start vector, x = 1 when omitted.  It must have one
    finite, strictly positive entry per cell (ConfigError otherwise):
    the Collatz quotients of any positive vector bracket the eigenvalue,
    so the first shift lies above it and the iterates stay positive
    whatever the start.  A start near the Perron vector cuts the
    iterations and shifts; the result then agrees with the cold start
    to the residual target, not bitwise.
    """
    p = np.asarray(potential, dtype=float)
    n = op.grid.size
    if p.shape != (n,):
        raise ConfigError(f"potential has shape {p.shape}, expected ({n},)")
    # Every min, max and sup-norm here selects its element by index,
    # a[a.argmax()]: the element the reduction returns, NaN and ±inf
    # included, at about a third of a ufunc reduction's cost.  Only a tie
    # of +0.0 and -0.0 may pick the other zero, and no result here tells
    # them apart: each is compared with 0, is the max of an abs, is a
    # divisor already checked positive, or is q's lo or hi, which enter
    # only hi + margin, shift - hi and max(hi - lo, margin_floor), the
    # same positive numbers whichever zero was picked.
    if x0 is None:
        x = np.ones(n)
    else:
        x = np.asarray(x0, dtype=float)
        if x.shape != (n,):
            raise ConfigError(f"start vector has shape {x.shape}, expected ({n},)")
        # min > 0 refuses NaN and every entry <= 0, so a finite max leaves
        # exactly the finite, strictly positive vectors.
        if not (x[x.argmin()] > 0.0 and math.isfinite(x[x.argmax()])):
            raise ConfigError("start vector must be finite and strictly positive")
    matvec, rows = _shifted_matvec(op, p)
    # Positive: with d > 0 and the grid Peclet number below 2, every row
    # of L holds a positive off-diagonal entry.
    scale = float(rows[rows.argmax()])
    res_target = max(tol, _ROUNDING_FLOOR) * scale
    margin_floor = 1e-8 * scale

    q = matvec(x) / x
    lo, hi = q[q.argmin()], q[q.argmax()]
    margin = max(hi - lo, margin_floor)
    shift = hi + margin
    solver = factor_shifted(op, shift=shift, scale=-1.0, potential=p)
    factorizations = 1

    iterations = 0
    while iterations < _MAX_EIGEN_SOLVES:
        y = solver.solve(x)
        iterations += 1
        if y[y.argmin()] <= 0.0:
            # Numerically possible only when the shift sits almost on top
            # of the eigenvalue; back off and refactor.
            margin *= 10.0
            shift = hi + margin
            solver = factor_shifted(op, shift=shift, scale=-1.0, potential=p)
            factorizations += 1
            continue
        x = y / y[y.argmax()]
        mx = matvec(x)
        lam = float(x @ mx) / float(x @ x)
        r = np.abs(mx - lam * x)
        residual = float(r[r.argmax()])
        if residual <= res_target:
            # Polish toward the rounding floor while progress is cheap: the
            # shift is anchored by now, so each extra solve shrinks the
            # residual sharply unless the spectral gap is genuinely tiny.
            floor = _ROUNDING_FLOOR * scale
            for _ in range(25):
                if residual <= floor:
                    break
                y = solver.solve(x)
                iterations += 1
                if y[y.argmin()] <= 0.0:
                    break
                cand = y / y[y.argmax()]
                mc = matvec(cand)
                lam_c = float(cand @ mc) / float(cand @ cand)
                r = np.abs(mc - lam_c * cand)
                res_c = float(r[r.argmax()])
                if res_c < residual:
                    x, lam, residual = cand, lam_c, res_c
                if res_c >= 0.5 * residual:
                    break
            return EigenReport(
                growth_rate=lam,
                phi=x,
                iterations=iterations,
                residual=residual,
                factorizations=factorizations,
            )
        q = mx / x  # the Collatz quotients bracket the dominant eigenvalue
        lo, hi = q[q.argmin()], q[q.argmax()]
        spread = max(hi - lo, margin_floor)
        if shift - hi > 8.0 * spread:
            margin = spread
            shift = hi + margin
            solver = factor_shifted(op, shift=shift, scale=-1.0, potential=p)
            factorizations += 1
    raise SolverError(
        f"eigen iteration did not reach residual {res_target:.3e} in {_MAX_EIGEN_SOLVES} solves "
        f"(last residual {residual:.3e})"
    )


# ---------------------------------------------------------------------
# invasion analysis
# ---------------------------------------------------------------------


def invasion_potential(resident: np.ndarray, eff: EffectiveParams) -> np.ndarray:
    """Per-capita growth a rare invader sees against a resident profile."""
    return eff.rr1 * (1.0 - resident / eff.K1)


@dataclass
class StabilityVerdict:
    verdict: str  # "stable" | "unstable" | "marginal"
    report: EigenReport


def semitrivial_stability(
    invader_op: TransportOperator,
    resident: np.ndarray,
    eff: EffectiveParams,
    tol_marginal: float = TOL_MARGINAL,
    eigen_tol: float = TOL_EIGEN,
    x0: np.ndarray | None = None,
) -> StabilityVerdict:
    """Linear stability of a single-species state against the other species.

    The invader moves with ``invader_op`` and experiences the per-capita
    growth left over by the resident.  A positive stability index beyond
    ``tol_marginal`` certifies the resident state repels the invader;
    beyond it on the negative side, the invader gets in.  ``x0`` is the
    eigen solve's start vector (see ``principal_eigenpair``).
    """
    report = principal_eigenpair(
        invader_op, invasion_potential(resident, eff), tol=eigen_tol, x0=x0
    )
    idx = report.stability_index
    if idx > tol_marginal:
        verdict = "stable"
    elif idx < -tol_marginal:
        verdict = "unstable"
    else:
        verdict = "marginal"
    return StabilityVerdict(verdict=verdict, report=report)


# ---------------------------------------------------------------------
# eigenvalue difference identity
# ---------------------------------------------------------------------


@dataclass
class EigenDifferenceReport:
    growth_first: float
    growth_second: float
    residual: float


def eigen_difference_residual(
    op1: TransportOperator,
    op2: TransportOperator,
    potential: np.ndarray,
    eigen_tol: float = TOL_EIGEN,
    second: EigenReport | None = None,
) -> EigenDifferenceReport:
    """Weighted-integral identity for the gap between two stability indices.

    Both operators share the potential but move differently.  The gap
    between their stability indices (negated dominant eigenvalues)
    equals a weighted integral built from the two eigenvectors; the
    discrete mismatch shrinks at second order in the mesh width, which
    pins down both eigensolver and quadrature at once.  ``second`` is
    op2's eigenpair under this potential when the caller already has
    it; it is solved here otherwise.
    """
    grid = op1.grid
    if grid.dim != 1:
        raise ConfigError("the eigenvalue difference identity is a 1-D diagnostic")
    rep1 = principal_eigenpair(op1, potential, tol=eigen_tol)
    rep2 = second if second is not None else principal_eigenpair(op2, potential, tol=eigen_tol)
    x = grid.centers
    h = grid.h
    z1, z2 = rep1.phi, rep2.phi
    d1, d2, alpha1, alpha2 = op1.d, op2.d, op1.alpha, op2.alpha
    dz1 = np.gradient(z1, h, edge_order=2)
    dz2 = np.gradient(z2, h, edge_order=2)
    w = np.exp(-(alpha2 / d2) * x)
    # d/dx of (w * z2) by the product rule keeps the O(h^2) accuracy of
    # the gradient instead of differencing the fast exponential directly.
    dwz2 = w * (dz2 - (alpha2 / d2) * z2)
    numer = h * float(np.sum(((d2 - d1) * dz1 + (alpha1 - alpha2) * z1) * dwz2))
    denom = h * float(np.sum(w * z1 * z2))
    estimate = numer / denom
    # The identity is stated for the stability indices (negated growth
    # rates), so the left side is index2 - index1 = growth1 - growth2.
    gap = rep1.growth_rate - rep2.growth_rate
    return EigenDifferenceReport(
        growth_first=rep1.growth_rate,
        growth_second=rep2.growth_rate,
        residual=abs(gap - estimate),
    )

