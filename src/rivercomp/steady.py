"""Steady states: single-species profiles, coexistence pairs, diagnostics.

The single-species resident profile solves  L u + r·r1·u·(1 - u/K1) = 0
with the no-flux transport operator L; the coexistence system couples two
of these through the shared quadratic term.  Both go through one
Armijo-damped Newton loop (``_damped_newton``), the pair on the stacked
state [u; v]; only the linear solve of a step differs.  The
single-species path can also march in time first ("hybrid", the default)
or exclusively ("long-time"), which doubles as an independent
cross-check of the Newton result.

On a 1-D grid the single-species Newton and march systems are factored
straight from the operator's bands (``linsolve.factor_shifted``), and the
residuals apply the bands (``TransportOperator.apply``), with no sparse
matrix built; on a 2-D grid they go to sparse LU.  The coexistence
Newton assembles its 2n-by-2n Jacobian directly in CSC form, from a
pattern fixed once per solve by the operator bands (the CSR matrix in
2-D) that stores every entry, an exact zero included, and factors it
with ``splu`` through one order state: the first Jacobian of a solve
under identity labels with SuperLU's COLAMD ordering, the later ones
relabelled by the column order COLAMD chose for the first, with no
further ordering.  A found pair's near-singular flag factors its
Jacobian the same way and estimates the 1-norm condition number with a
one-column ``onenormest``, in both dimensions.

The diagnostic helpers evaluate quantities that are exact for the
continuous steady states and must therefore shrink at second order on
refined grids: the growth-weighted capacity gap and its quadratic twin,
log-slope bands, per-capita transport balance, and a pair of weighted
integral identities for coexistence pairs.  Those are whole-habitat
integrals: integrated by parts, each becomes boundary flux terms, which
vanish under no-flux walls.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import ConfigError, SolverError
from .grid import Grid
from .linsolve import factor_shifted
from .model import EffectiveParams
from .operators import TransportOperator
from .stepping import max_stable_dt

__all__ = [
    "SteadyState",
    "CoexistencePair",
    "CapacityGapReport",
    "LogSlopeReport",
    "BalanceResidual",
    "IdentityReport",
    "solve_single_steady",
    "solve_coexistence",
    "constant_capacity_companion",
    "capacity_gap_integral",
    "log_slope",
    "log_slope_report",
    "per_capita_balance_residual",
    "coexistence_identity_residuals",
    "positivity_floor",
    "TOL_STEADY",
]

# Default residual tolerance of the steady solves.
TOL_STEADY = 1e-10
_ARMIJO_SLOPE = 1e-4
_MIN_DAMPING = 2.0**-10
# Iteration caps: Newton updates of a lone state and of a pair, and steps
# of the lone-state march.
_MAX_SINGLE_UPDATES = 60
_MAX_PAIR_UPDATES = 80
_MAX_MARCH_STEPS = 500_000


@dataclass
class SteadyState:
    u: np.ndarray
    residual: float
    method: str  # "long-time" | "newton" | "hybrid"
    iterations: int


@dataclass
class CoexistencePair:
    u: np.ndarray
    v: np.ndarray
    residual: float
    iterations: int
    jacobian_near_singular: bool


# The min, max and sup-norm taken per Newton or march update, and the
# washout tests, select their element by index, a[a.argmax()]: the element
# the reduction returns, NaN and ±inf included, at about a third of a ufunc
# reduction's cost.  A tie of +0.0 and -0.0 may pick the other zero; each
# such result here is the max of an abs, or is only compared with a
# threshold, which reads both zeros alike.


def positivity_floor(eff: EffectiveParams) -> float:
    """Strict-positivity threshold used to reject washed-out profiles."""
    K1 = eff.K1
    return 1e-8 * float(K1[K1.argmax()])


# ---------------------------------------------------------------------
# the damped Newton loop
# ---------------------------------------------------------------------


def _damped_newton(
    residual: Callable[[np.ndarray], np.ndarray],
    step: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: np.ndarray,
    tol: float,
    max_iter: int,
    what: str,
) -> tuple[np.ndarray, float, int]:
    """Armijo-damped Newton iteration on residual(x) = 0 in sup-norm.

    ``step(x, res)`` returns the full Newton update for the residual
    ``res`` at ``x``; the loop halves it until the residual norm falls by
    the Armijo fraction.  Returns the state, its residual norm and the
    number of updates taken (0 for a start that already meets ``tol``).
    Raises ``SolverError`` naming ``what`` when no damping down to
    ``_MIN_DAMPING`` helps, or after ``max_iter`` updates.
    """
    res = residual(x)
    a = np.abs(res)
    res_norm = float(a[a.argmax()])
    for updates in range(max_iter):
        if res_norm < tol:
            return x, res_norm, updates
        delta = step(x, res)
        s = 1.0
        trial = x + delta  # the full update: 1.0·delta is delta exactly
        while True:
            trial_res = residual(trial)
            a = np.abs(trial_res)
            trial_norm = float(a[a.argmax()])
            if trial_norm <= (1.0 - _ARMIJO_SLOPE * s) * res_norm:
                x, res, res_norm = trial, trial_res, trial_norm
                break
            s *= 0.5
            if s < _MIN_DAMPING:
                raise SolverError(
                    f"{what} Newton stalled at residual {res_norm:.3e} (target {tol:.3e})"
                )
            trial = x + s * delta
    raise SolverError(f"{what} Newton hit the iteration cap at residual {res_norm:.3e}")


# ---------------------------------------------------------------------
# single species
# ---------------------------------------------------------------------


def _single_residual(op: TransportOperator, eff: EffectiveParams, u: np.ndarray) -> np.ndarray:
    return op.apply(u) + eff.rr1 * u * (1.0 - u / eff.K1)


def _march(
    op: TransportOperator,
    eff: EffectiveParams,
    u0: np.ndarray,
    rate_tol: float,
) -> tuple[np.ndarray, int]:
    """Semi-implicit march of the single-species system to quiescence.

    Stops when the discrete time derivative drops below ``rate_tol`` in
    sup-norm, measured against the reaction scale max(rr1*K1) so the test
    stays meaningful when heavy harvesting shrinks the whole profile.
    Returns the state and number of steps taken; ``u0`` is never written.
    """
    rate_tol *= float((eff.rr1 * eff.K1).max())
    # The semi-implicit fixed point is the steady state for any dt, so the
    # march can take the full reaction-stability step rather than the small
    # trajectory-accuracy step; convergence then needs O(10) steps per
    # relaxation time regardless of how hard the harvest squeezes r*r1.
    dt = max_stable_dt(eff.rr1)
    solve = factor_shifted(op, shift=1.0, scale=-dt)
    dt_rr1, K1 = dt * eff.rr1, eff.K1
    u = u0
    for k in range(1, _MAX_MARCH_STEPS + 1):
        u_next = solve.solve(u + dt_rr1 * u * (1.0 - u / K1))
        np.maximum(u_next, 0.0, out=u_next)
        a = np.abs(u_next - u)
        rate = float(a[a.argmax()]) / dt
        u = u_next
        if rate < rate_tol:
            return u, k
    raise SolverError(
        f"single-species march did not settle within {_MAX_MARCH_STEPS} steps "
        f"(rate {rate:.3e} vs target {rate_tol:.3e})"
    )


def _newton_single(
    op: TransportOperator,
    eff: EffectiveParams,
    u0: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, float, int]:
    """Damped Newton from ``u0``: the state, its residual norm and the updates.

    The state is ``u0`` itself when it already meets ``tol``.
    """
    rr1 = eff.rr1
    K1 = eff.K1

    def step(u: np.ndarray, res: np.ndarray) -> np.ndarray:
        try:
            return factor_shifted(op, potential=rr1 * (1.0 - 2.0 * u / K1)).solve(-res)
        except SolverError as exc:
            raise SolverError(f"steady-state Newton system is singular: {exc}") from None

    return _damped_newton(
        lambda u: _single_residual(op, eff, u), step, u0, tol, _MAX_SINGLE_UPDATES, "steady-state"
    )


def solve_single_steady(
    op: TransportOperator,
    eff: EffectiveParams,
    tol: float = TOL_STEADY,
    method: str = "hybrid",
    u0: np.ndarray | None = None,
) -> SteadyState:
    """Positive steady profile of a lone species under operator ``op``.

    Methods: "hybrid" marches until the time derivative is below sqrt(tol)
    and polishes with Newton; "newton" starts Newton from the mean folded
    capacity (or ``u0``); "long-time" marches alone, four decades past
    sqrt(tol), and skips Newton entirely so it can serve as an independent
    oracle for the Newton path.
    """
    if method not in ("hybrid", "newton", "long-time"):
        raise ConfigError(f"unknown steady method {method!r}")
    K1 = eff.K1
    # The one copy of the start: neither loop writes into its start, and
    # the state a solve returns never shares memory with ``u0``.
    start = u0.copy() if u0 is not None else None
    residual = None  # the Newton loop's last residual norm, when it ran last

    if method == "newton":
        if start is None:
            start = np.full(op.grid.size, float(K1.mean()))
        u, residual, iterations = _newton_single(op, eff, start, tol)
    else:
        if start is None:
            start = np.full(op.grid.size, 0.5 * float(K1.min()))
        rate_tol = math.sqrt(tol) if method == "hybrid" else 1e-4 * math.sqrt(tol)
        u, iterations = _march(op, eff, start, rate_tol)
        if method == "hybrid":
            try:
                u, residual, newton_its = _newton_single(op, eff, u, tol)
                iterations += newton_its
            except SolverError:
                # Fall back to marching the rest of the way.
                u, steps = _march(op, eff, u, 1e-3 * math.sqrt(tol))
                iterations += steps
                method = "long-time"

    if float(u[u.argmin()]) <= positivity_floor(eff):
        raise SolverError(
            "no strictly positive steady profile: the population washes out "
            "at these movement/harvest parameters"
        )
    if residual is None:
        residual = float(np.abs(_single_residual(op, eff, u)).max())
    return SteadyState(u=u, residual=residual, method=method, iterations=iterations)


# ---------------------------------------------------------------------
# coexistence
# ---------------------------------------------------------------------


def _pair_residual(
    op1: TransportOperator, op2: TransportOperator, eff: EffectiveParams, x: np.ndarray
) -> np.ndarray:
    """Both species' residuals, stacked, at the stacked state x = [u; v]."""
    n = op1.grid.size
    u, v = x[:n], x[n:]
    shared = 1.0 - (u + v) / eff.K1
    return np.concatenate(
        [op1.apply(u) + eff.rr1 * u * shared, op2.apply(v) + eff.rr1 * v * shared]
    )


def _split(op: TransportOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of L's off-diagonal entries, and L's diagonal.

    A 1-D operator reads them off its bands; a 2-D one off its CSR matrix.
    """
    if op.grid.dim == 2:
        m = op.matrix.tocoo()
        off = m.row != m.col
        return m.row[off], m.col[off], m.data[off], op.matrix.diagonal()
    lower, diag, upper = op.bands
    idx = np.arange(len(lower), dtype=np.int32)
    return (
        np.concatenate([idx + 1, idx]),
        np.concatenate([idx, idx + 1]),
        np.concatenate([lower, upper]),
        diag,
    )


class _PairJacobian:
    """The pair Jacobian [[L1 + D11, D12], [D21, L2 + D22]] in CSC form.

    The pattern is the operators': the off-diagonals of L1 and L2 and the
    diagonals of the four blocks, every entry stored, an exact zero
    included.  Each CSC layout is built once, and a matrix only gathers
    its values into one.  Without zeros, its arrays and ``splu`` factors
    are those of the ``sparse.bmat`` assembly.

    One order state, ``_order = (label, layout, permc_spec)``, says how
    ``factor`` lays out and orders a Jacobian.  It starts as the identity
    labels, the natural layout and COLAMD, which chooses its column order
    (``perm_c``) from the pattern alone.  After that first factor it holds
    ``perm_c``, the layout with rows and columns both relabelled by it and
    ``permc_spec="NATURAL"``: SuperLU runs the same elimination on the same
    numbers, so each solution is bitwise that of a plain ``splu``.
    ``near_singular`` estimates the condition number from a factor taken
    the same way.
    """

    def __init__(self, op1: TransportOperator, op2: TransportOperator, eff: EffectiveParams):
        n = op1.grid.size
        self._rr1, self._K1 = eff.rr1, eff.K1
        rows1, cols1, off1, self._diag1 = _split(op1)
        rows2, cols2, off2, self._diag2 = _split(op2)
        self._off = np.concatenate([off1, off2])
        idx = np.arange(n, dtype=np.int32)
        # Entry order: off-diagonals of L1, then L2, then the diagonals
        # of the four blocks (11, 22, 12, 21).
        self._entry_rows = np.concatenate([rows1, rows2 + n, idx, idx + n, idx, idx + n])
        self._entry_cols = np.concatenate([cols1, cols2 + n, idx, idx + n, idx + n, idx])
        self._shape = (2 * n, 2 * n)
        identity = np.arange(2 * n, dtype=np.int32)
        self._natural = self._layout(identity)
        self._order = (identity, self._natural, "COLAMD")

    def _layout(self, label: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entry order, row labels and column pointers of B[label[i], label[j]] = J[i, j].

        Each column keeps its rows in natural order: SuperLU's symbolic
        search follows the stored order, and that order settles ties
        between equally large pivot candidates.
        """
        cols = label[self._entry_cols]
        order = np.lexsort((self._entry_rows, cols))
        indptr = np.zeros(self._shape[1] + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=self._shape[1]), out=indptr[1:])
        return order, label[self._entry_rows[order]], indptr

    def _values(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The entries in the fixed entry order."""
        rr1, K1 = self._rr1, self._K1
        return np.concatenate(
            [
                self._off,
                self._diag1 + rr1 * (1.0 - (2.0 * u + v) / K1),
                self._diag2 + rr1 * (1.0 - (u + 2.0 * v) / K1),
                -rr1 * u / K1,
                -rr1 * v / K1,
            ]
        )

    def _matrix(self, values: np.ndarray, layout: tuple) -> sparse.csc_matrix:
        order, rows, indptr = layout
        jac = sparse.csc_matrix((values[order], rows, indptr), shape=self._shape)
        # The flag keeps splu from sorting the relabelled rows.
        jac.has_canonical_format = True
        return jac

    def __call__(self, u: np.ndarray, v: np.ndarray) -> sparse.csc_matrix:
        return self._matrix(self._values(u, v), self._natural)

    def factor(self, u: np.ndarray, v: np.ndarray) -> tuple[spla.SuperLU, np.ndarray]:
        """SuperLU factors of J(u, v) and the labels of the unknowns in them.

        The factored matrix B has B[label[i], label[j]] = J[i, j].  Raises
        ``RuntimeError`` for a singular Jacobian.
        """
        label, layout, spec = self._order
        lu = spla.splu(self._matrix(self._values(u, v), layout), permc_spec=spec)
        if spec == "COLAMD":
            # Rows are relabelled along with the columns because SuperLU prefers
            # the diagonal among tied pivot candidates and finds the diagonal
            # through its column order, which NATURAL makes the identity.
            self._order = (lu.perm_c, self._layout(lu.perm_c), "NATURAL")
        return lu, label

    def solve(self, u: np.ndarray, v: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """J(u, v)⁻¹·rhs; raises ``RuntimeError`` for a singular Jacobian."""
        return _labelled_solve(*self.factor(u, v), rhs)

    def near_singular(self, u: np.ndarray, v: np.ndarray) -> bool:
        """Whether J(u, v)'s 1-norm condition number exceeds 1e10.

        ``onenormest`` estimates the 1-norm of J⁻¹ (Hager's method) with
        one column, which draws no random numbers, so the answer is the
        same on every run.  A singular Jacobian is near-singular.
        """
        try:
            lu, label = self.factor(u, v)
        except RuntimeError:
            return True
        inverse = spla.LinearOperator(
            self._shape,
            matvec=lambda b: _labelled_solve(lu, label, b),
            rmatvec=lambda b: _labelled_solve(lu, label, b, "T"),
            dtype=float,
        )
        anorm = float(np.max(abs(self(u, v)).sum(axis=0)))
        return bool(anorm * spla.onenormest(inverse, t=1) > 1e10)


def _labelled_solve(
    lu: spla.SuperLU, label: np.ndarray, rhs: np.ndarray, trans: str = "N"
) -> np.ndarray:
    """J⁻¹·rhs (Jᵀ⁻¹·rhs for ``trans="T"``) from ``_PairJacobian.factor``'s
    factors and labels, in the unknowns' natural order."""
    b = np.empty_like(rhs)
    b[label] = rhs
    return lu.solve(b, trans)[label]


def solve_coexistence(
    op1: TransportOperator,
    op2: TransportOperator,
    eff: EffectiveParams,
    guess: tuple[np.ndarray, np.ndarray] | None = None,
    tol: float = TOL_STEADY,
) -> CoexistencePair | None:
    """Damped Newton search for a strictly positive coexistence pair.

    Starts from (K1/3, K1/3) unless a warm start is given.  Returns None
    when the iteration lands on a state with a washed-out component (a
    single-species or empty profile), which is the honest answer "no
    coexistence state found from this start" rather than a failure.
    """
    if guess is None:
        guess = (eff.K1 / 3.0, eff.K1 / 3.0)
    x = np.concatenate(guess, dtype=float)
    n = op1.grid.size
    jacobian = _PairJacobian(op1, op2, eff)

    def step(x: np.ndarray, res: np.ndarray) -> np.ndarray:
        try:
            return jacobian.solve(x[:n], x[n:], -res)
        except RuntimeError:
            raise SolverError(
                "coexistence Jacobian is singular; a marginal/bifurcation "
                "point is suspected at these parameters"
            ) from None

    x, res_norm, updates = _damped_newton(
        lambda x: _pair_residual(op1, op2, eff, x), step, x, tol, _MAX_PAIR_UPDATES, "coexistence"
    )
    u, v = x[:n], x[n:]
    floor = positivity_floor(eff)
    if float(u[u.argmin()]) <= floor or float(v[v.argmin()]) <= floor:
        return None
    return CoexistencePair(
        u=u,
        v=v,
        residual=res_norm,
        iterations=updates,
        jacobian_near_singular=jacobian.near_singular(u, v),
    )


def constant_capacity_companion(
    op: TransportOperator, eff: EffectiveParams, tol: float = TOL_STEADY
) -> tuple[SteadyState, EffectiveParams]:
    """Steady profile of the same species over a flattened capacity.

    Replaces the folded capacity with its spatial mean and re-solves the
    single-species problem.  The log-slope band 0 < u_x/u < alpha/d is a
    constant-capacity statement (heterogeneous capacity can tilt the
    profile against the drift), so band checks run on this companion.
    """
    size = eff.grid.size
    k1_const = float(np.mean(eff.K1))
    eff_const = replace(eff, K=np.full(size, k1_const / eff.r1), K1=np.full(size, k1_const))
    return solve_single_steady(op, eff_const, tol=tol), eff_const


# ---------------------------------------------------------------------
# steady-state diagnostics
# ---------------------------------------------------------------------


@dataclass
class CapacityGapReport:
    """Growth-weighted gap between capacity and a steady profile.

    ``linear`` is the integral of r·(K1 - u); ``quadratic`` integrates
    r·(K1 - u)²/K1.  For an exact single-species steady state the two
    are equal, and both are strictly positive unless u = K1
    (``degenerate`` marks constant capacity, where both vanish without
    drift).
    """

    linear: float
    quadratic: float
    degenerate: bool


def capacity_gap_integral(u: np.ndarray, eff: EffectiveParams) -> CapacityGapReport:
    grid = eff.grid
    r = eff.r
    K1 = eff.K1
    gap = K1 - u
    linear = grid.cell_volume * float(np.sum(r * gap))
    quadratic = grid.cell_volume * float(np.sum(r * gap * gap / K1))
    degenerate = float(np.ptp(K1)) <= 1e-12 * float(np.max(np.abs(K1)))
    return CapacityGapReport(linear=linear, quadratic=quadratic, degenerate=degenerate)


def log_slope(u: np.ndarray, grid: Grid) -> np.ndarray:
    """u_x / u at cell centers (second order, one-sided at the ends)."""
    if grid.dim != 1:
        raise ConfigError("log slopes are a 1-D diagnostic")
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise SolverError("log slope needs a strictly positive profile")
    return np.gradient(u, grid.h, edge_order=2) / u


@dataclass
class LogSlopeReport:
    slope: np.ndarray  # interior cells only
    lower: float
    upper: float
    band: float  # tolerance added on both sides (10 h^2)
    violations: int


def log_slope_report(u: np.ndarray, op: TransportOperator) -> LogSlopeReport:
    """Check u_x/u against the drift band [0, alpha/d] of ``op`` on interior cells.

    For a steady profile the log slope is pinned between 0 and alpha/d
    (both bounds collapse to zero when alpha = 0, and flip when alpha is
    negative).  Interior central differences only; the band widens by
    10 h^2 to absorb discretization error.
    """
    grid = op.grid
    interior = log_slope(u, grid)[1:-1]
    ratio = op.alpha / op.d
    lower = min(0.0, ratio)
    upper = max(0.0, ratio)
    band = 10.0 * grid.h * grid.h
    violations = int(np.sum(interior < lower - band) + np.sum(interior > upper + band))
    return LogSlopeReport(slope=interior, lower=lower, upper=upper, band=band, violations=violations)


@dataclass
class BalanceResidual:
    residual: np.ndarray  # interior cells
    max_abs: float


def per_capita_balance_residual(
    u: np.ndarray, v: np.ndarray, op1: TransportOperator, op2: TransportOperator
) -> BalanceResidual:
    """Pointwise mismatch of the two per-capita transport balances.

    At a coexistence state both species see the same growth factor, so
    -d·(T' + T²) + alpha·T computed from either log slope (T = u_x/u
    under ``op1``, S = v_x/v under ``op2``) must agree pointwise.  The
    residual is reported on interior cells and shrinks at second order
    under refinement.
    """
    grid = op1.grid
    t = log_slope(u, grid)
    s = log_slope(v, grid)
    h = grid.h
    lhs = -op1.d * (np.gradient(t, h, edge_order=2) + t * t) + op1.alpha * t
    rhs = -op2.d * (np.gradient(s, h, edge_order=2) + s * s) + op2.alpha * s
    residual = (lhs - rhs)[1:-1]
    return BalanceResidual(residual=residual, max_abs=float(np.max(np.abs(residual))))


@dataclass
class IdentityReport:
    residual_first: float
    residual_second: float


def coexistence_identity_residuals(
    pair: CoexistencePair, op1: TransportOperator, op2: TransportOperator
) -> IdentityReport:
    """Weighted whole-habitat integral identities for a coexistence pair.

    Each species' equation, multiplied by the other species' density and
    an exponential weight, integrates by parts into boundary flux terms,
    which vanish under no-flux walls.  The integrals, evaluated with
    midpoint quadrature over every cell, are the residuals: both are
    second-order small for a converged pair.
    """
    grid = op1.grid
    if grid.dim != 1:
        raise ConfigError("the integral identities are a 1-D diagnostic")
    h = grid.h
    u, v = pair.u, pair.v
    x = grid.centers
    du = np.gradient(u, h, edge_order=2)
    dv = np.gradient(v, h, edge_order=2)
    d1, d2, a1, a2 = op1.d, op2.d, op1.alpha, op2.alpha

    w1 = np.exp(-(a1 / d1) * x)
    w2 = np.exp(-(a2 / d2) * x)
    flux_u = d1 * du - a1 * u  # cell-centered version of the u flux
    flux_v = d2 * dv - a2 * v

    first = h / d1 * float(np.sum(((d1 - d2) * dv - (a1 - a2) * v) * flux_u * w1))
    second = h / d2 * float(np.sum(((d1 - d2) * du - (a1 - a2) * u) * flux_v * w2))
    return IdentityReport(residual_first=abs(first), residual_second=abs(second))
