"""Experiment orchestration: problems, presets, pipelines, the drift-rate sweep.

A ``Problem`` holds everything one parameter set determines on a grid:
the grid, folded coefficients and two transport operators, built with
the problem, and the lone states u_hat and v_hat, the invasion indices
kappa and tau, and the same problem on the halved grid, built on first
use and kept, so every pipeline asks for what it needs and nothing is
solved twice.  ``simulate_run`` wires a problem into the stepper and
classifies the outcome.  The preset catalog (`PRESETS`) pins down the named
parameter sets used for qualitative reproduction runs; each carries its
full parameter set so runs are self-contained.  ``sweep_alpha2`` walks
the second species' drift rate across the interval where the competition
outcome is known to flip, classifying every point from the two invasion
eigenvalues, and brackets the coexistence window with one bisection
refinement per edge.  Each point starts its lone-state Newton and its two
eigen solves from the quadratic extrapolation of the last three points'
solutions.  A coexistence Newton solve runs only at points
whose two indices share a sign beyond the marginal band: by the
competitive trichotomy (Hsu, Smith & Waltman 1996) these are the only
points where finding a pair can change the verdict.  ``run_verification``
aggregates the steady-state integral/band/eigenvalue checks into a
pass/fail report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .config import RunConfig, parse_config
from .errors import ConfigError, SolverError
from .grid import Grid
from .model import classify_regime
from .operators import transport_for
from .spectral import (
    StabilityVerdict,
    eigen_difference_residual,
    invasion_potential,
    semitrivial_stability,
)
from .steady import (
    SteadyState,
    capacity_gap_integral,
    coexistence_identity_residuals,
    constant_capacity_companion,
    log_slope_report,
    per_capita_balance_residual,
    solve_coexistence,
    solve_single_steady,
)
from .stepping import Outcome, Stepper, Trajectory, Verdict, classify_outcome, integrate

__all__ = [
    "Problem",
    "FigurePreset",
    "PRESETS",
    "preset_config",
    "run_figure",
    "simulate_run",
    "steady_report",
    "eigen_report",
    "SweepPoint",
    "SweepResult",
    "point_outcome",
    "sweep_alpha2",
    "run_verification",
]


# ---------------------------------------------------------------------
# one parameter set
# ---------------------------------------------------------------------


class Problem:
    """One run's parameter set on a grid, and the state every pipeline
    derives from it.

    The grid (``cfg.grid()`` unless one is given), folded coefficients and
    both operators are built with the problem, so a grid that breaks the
    Peclet guard or the positivity of r or K fails here; the lone states,
    invasion indices and halved-grid companion are built on first use and
    kept.
    """

    def __init__(self, cfg: RunConfig, grid: Grid | None = None):
        self.cfg = cfg
        self.grid = grid if grid is not None else cfg.grid()
        self.eff = cfg.effective(self.grid)
        p = cfg.params
        self.op1 = transport_for(self.grid, p.d1, p.alpha1)
        self.op2 = transport_for(self.grid, p.d2, p.alpha2)

    def _lone_state(self, op) -> SteadyState:
        """The lone state of the species moving with ``op``, refused at
        mu1 != mu2, where the folded model it solves is not the model."""
        if not self.cfg.params.equal_harvest:
            raise ConfigError("the analyses need equal harvest fractions, not mu1 != mu2")
        return solve_single_steady(op, self.eff, tol=self.cfg.tolerances.steady)

    @cached_property
    def u_hat(self) -> SteadyState:
        """The first species' lone state."""
        return self._lone_state(self.op1)

    @cached_property
    def v_hat(self) -> SteadyState:
        """The second species' lone state."""
        return self._lone_state(self.op2)

    def _invasion(self, invader_op, resident: np.ndarray, x0=None) -> StabilityVerdict:
        """Stability of a lone ``resident`` profile against the species moving
        with ``invader_op``; ``x0`` starts the eigen solve."""
        tol = self.cfg.tolerances
        return semitrivial_stability(
            invader_op, resident, self.eff, tol_marginal=tol.marginal, eigen_tol=tol.eigen, x0=x0
        )

    @cached_property
    def kappa(self) -> StabilityVerdict:
        """Stability of u_hat against invasion by the second species."""
        return self._invasion(self.op2, self.u_hat.u)

    @cached_property
    def tau(self) -> StabilityVerdict:
        """Stability of v_hat against invasion by the first species."""
        return self._invasion(self.op1, self.v_hat.u)

    @cached_property
    def coarse(self) -> Problem | None:
        """The same parameters on n/2 cells, or None where n is odd, below
        6, or the halved grid breaks the Peclet guard or the positivity of
        r or K.

        The coarse problem keeps this problem's ``cfg`` (its tolerances
        included) and reads n from its own grid; dt, t_end, u0 and v0 do
        not enter."""
        n = self.grid.n
        if n % 2 != 0 or n // 2 < 3:
            return None
        try:
            return Problem(self.cfg, replace(self.grid, n=n // 2))
        except ConfigError:
            return None


# ---------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class FigurePreset:
    figure: str
    description: str
    expected: Verdict | None  # asserted qualitative outcome, when one is pinned
    overrides: dict


def _preset(figure, description, expected, **overrides) -> FigurePreset:
    overrides.setdefault("mode", "figure")
    overrides.setdefault("figure", figure)
    overrides.setdefault("snapshot_times", [0.0, overrides["t_end"]])
    return FigurePreset(
        figure=figure, description=description, expected=expected, overrides=overrides
    )


_WEAK_HARVEST = dict(d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04)
_SLOW_MOVEMENT = dict(d1=0.002, d2=0.001, alpha1=0.001, alpha2=0.0006)
_FAST_CONTRAST = dict(d1=3.0, d2=0.8, alpha1=0.7, alpha2=0.03)
# Snapshot-horizon presets show a transient; their settle tolerance is
# opened up so a slowly drifting pair still reads as coexisting at the
# snapshot time instead of Undecided.
_TRANSIENT_TOL = {"settle": 0.01}

PRESETS: dict[str, FigurePreset] = {
    p.figure: p
    for p in (
        _preset(
            "fig1",
            "light equal harvest, faster-dispersing first species; exclusion horizon",
            Verdict.V_WINS,
            **_WEAK_HARVEST,
            mu=0.009,
            t_end=2000.0,
        ),
        _preset(
            "fig2",
            "light equal harvest, early-transient snapshot",
            None,
            **_WEAK_HARVEST,
            mu=0.009,
            t_end=80.0,
            tolerances=_TRANSIENT_TOL,
        ),
        _preset(
            "fig6",
            "near-zero equal harvest; exclusion horizon",
            Verdict.V_WINS,
            **_WEAK_HARVEST,
            mu=0.001,
            t_end=2000.0,
        ),
        _preset(
            "fig7",
            "near-zero equal harvest, early-transient snapshot",
            None,
            **_WEAK_HARVEST,
            mu=0.001,
            t_end=80.0,
            tolerances=_TRANSIENT_TOL,
        ),
        _preset(
            "fig8",
            "heavy equal harvest, slow movement; slow transient, first species still declining",
            None,
            **_SLOW_MOVEMENT,
            mu=0.3,
            t_end=2000.0,
        ),
        _preset(
            "fig10",
            "heavy equal harvest, slow movement, early-transient snapshot",
            None,
            **_SLOW_MOVEMENT,
            mu=0.3,
            t_end=80.0,
            tolerances=_TRANSIENT_TOL,
        ),
        _preset(
            "fig12",
            "strong movement contrast, early-transient snapshot",
            None,
            **_FAST_CONTRAST,
            mu=0.1,
            t_end=80.0,
            tolerances=_TRANSIENT_TOL,
        ),
        _preset(
            "fig13",
            "strong movement contrast; exclusion horizon",
            Verdict.V_WINS,
            **_FAST_CONTRAST,
            mu=0.1,
            t_end=2000.0,
        ),
        _preset(
            "fig15",
            "planar habitat, light equal harvest, slow movement",
            None,
            d1=0.005,
            d2=0.002,
            alpha1=0.002,
            alpha2=0.0018,
            mu=0.03,
            dim=2,
            n=64,
            t_end=80.0,
            tolerances=_TRANSIENT_TOL,
        ),
        _preset(
            "fig16",
            "planar habitat, heavy equal harvest, slow movement",
            None,
            **_SLOW_MOVEMENT,
            mu=0.3,
            dim=2,
            n=64,
            t_end=80.0,
            tolerances=_TRANSIENT_TOL,
        ),
        _preset(
            "fig17",
            "planar habitat, identical movement, unequal harvest fractions",
            Verdict.COEXISTENCE,
            d1=1.0,
            d2=1.0,
            alpha1=1.0,
            alpha2=1.0,
            mu1=0.01,
            mu2=0.0076,
            dim=2,
            n=64,
            t_end=80.0,
            tolerances=_TRANSIENT_TOL,
        ),
    )
}


def preset_config(figure: str, overrides: dict | None = None) -> RunConfig:
    """RunConfig for a catalog preset, the base layer under ``overrides``."""
    if figure not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown figure preset {figure!r}; known presets: {known}")
    preset = {"out_dir": figure, **PRESETS[figure].overrides}
    overrides = overrides or {}
    t_end = overrides.get("t_end")
    if overrides.get("snapshot_times") is None and isinstance(t_end, (int, float)):
        # The preset's own snapshot times past an overridden t_end are never reached.
        preset["snapshot_times"] = [t for t in preset["snapshot_times"] if t <= t_end]
    return parse_config(preset, overrides)


# ---------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------


def simulate_run(cfg: RunConfig) -> tuple[Trajectory, Outcome]:
    """Integrate the competition system per config and classify the end state."""
    problem = Problem(cfg)
    stepper = Stepper(
        problem.op1, problem.op2, cfg.params, problem.eff, dt=cfg.dt, form=cfg.reaction_form
    )
    u0, v0 = cfg.initial_fields(problem.grid)
    traj = integrate(
        stepper,
        u0,
        v0,
        cfg.t_end,
        n_samples=cfg.samples,
        snapshot_times=cfg.snapshot_times,
    )
    outcome = classify_outcome(
        traj, eps_extinct=cfg.tolerances.extinct, eps_settle=cfg.tolerances.settle
    )
    return traj, outcome


def simulate_report(traj: Trajectory, outcome: Outcome) -> dict:
    return {
        "outcome": outcome.verdict.value,
        "final_norm_u": outcome.final_norm_u,
        "final_norm_v": outcome.final_norm_v,
        "eps_extinct": outcome.eps_extinct,
        "eps_settle": outcome.eps_settle,
        "settled": outcome.settled,
        "final_mass_u": traj.mass_u[-1],
        "final_mass_v": traj.mass_v[-1],
        "clamp_events": traj.clamp_events,
        "implicit_solve": traj.implicit_solve,
    }


def run_figure(
    cfg: RunConfig | str, overrides: dict | None = None
) -> tuple[RunConfig, Trajectory, Outcome, dict]:
    """The figure pipeline on a ``preset_config``, or on a preset id and its overrides."""
    if isinstance(cfg, str):
        cfg = preset_config(cfg, overrides)
    traj, outcome = simulate_run(cfg)
    expected = PRESETS[cfg.figure].expected
    report = simulate_report(traj, outcome)
    report["figure"] = cfg.figure
    report["expected"] = expected.value if expected is not None else None
    report["matches_expected"] = None if expected is None else outcome.verdict == expected
    return cfg, traj, outcome, report


def steady_report(cfg: RunConfig) -> dict:
    """Solve both single-species states and attempt a coexistence pair."""
    problem = Problem(cfg)
    eff = problem.eff
    report = {
        "u_state": _state_summary(problem.u_hat, eff),
        "v_state": _state_summary(problem.v_hat, eff),
    }
    try:
        pair = solve_coexistence(problem.op1, problem.op2, eff, tol=cfg.tolerances.steady)
    except SolverError as exc:
        report["coexistence"] = {"found": False, "note": str(exc)}
        return report
    if pair is None:
        report["coexistence"] = {"found": False, "note": "no strictly positive pair from this start"}
    else:
        report["coexistence"] = {
            "found": True,
            "residual": pair.residual,
            "iterations": pair.iterations,
            "jacobian_near_singular": pair.jacobian_near_singular,
            "min_u": float(np.min(pair.u)),
            "min_v": float(np.min(pair.v)),
        }
    return report


def _state_summary(state, eff) -> dict:
    gap = capacity_gap_integral(state.u, eff)
    return {
        "method": state.method,
        "iterations": state.iterations,
        "residual": state.residual,
        "min": float(np.min(state.u)),
        "max": float(np.max(state.u)),
        "capacity_gap": gap.linear,
        "capacity_gap_quadratic": gap.quadratic,
        "capacity_gap_degenerate": gap.degenerate,
    }


def eigen_report(cfg: RunConfig) -> dict:
    """Invasion stability indices of both single-species states."""
    problem = Problem(cfg)
    regime = classify_regime(cfg.params)
    return {
        "u_state": _index_summary(problem.kappa),
        "v_state": _index_summary(problem.tau),
        "drift_ratio_1": regime.ratio1,
        "drift_ratio_2": regime.ratio2,
        "faster_disperser_higher_ratio": regime.holds_c1,
    }


def _index_summary(stability: StabilityVerdict) -> dict:
    report = stability.report
    return {
        "stability_index": report.stability_index,
        "growth_rate": report.growth_rate,
        "verdict": stability.verdict,
        "iterations": report.iterations,
        "factorizations": report.factorizations,
        "residual": report.residual,
    }


# ---------------------------------------------------------------------
# drift-rate sweep
# ---------------------------------------------------------------------


@dataclass
class SweepPoint:
    """One classified drift rate of the sweep.

    ``coexistence_found`` and ``note`` report the pair search, which runs
    only where both indices share a sign beyond the marginal band.  At
    exclusion and marginal points no search runs, so they are False and
    empty there.
    """

    alpha2: float
    kappa: float  # stability index of the first species' lone state
    tau: float  # stability index of the second species' lone state
    coexistence_found: bool
    verdict: Verdict
    anomaly: bool
    note: str = ""


@dataclass
class SweepResult:
    omega1: float
    lo: float
    hi: float
    points: list[SweepPoint]
    edge_points: list[SweepPoint]
    window: tuple[float, float] | None
    epsilon1: float | None
    epsilon2: float | None
    anomalies: list[str] = field(default_factory=list)

    def verdict_pattern(self) -> list[str]:
        return [p.verdict.value for p in self.points]


def point_outcome(
    kappa: float, tau: float, coexistence_found: bool, tol_marginal: float
) -> tuple[Verdict, bool]:
    """Decision table mapping (invasion indices, pair found) to a verdict.

    Positive index = that lone state repels the other species.  Both
    states being attracting while a strictly positive pair also exists
    contradicts the competitive-order trichotomy and is flagged as an
    anomaly rather than classified.
    """
    u_stable = kappa > tol_marginal
    u_unstable = kappa < -tol_marginal
    v_stable = tau > tol_marginal
    v_unstable = tau < -tol_marginal
    if u_stable and v_stable and coexistence_found:
        return Verdict.UNDECIDED, True
    if u_unstable and v_unstable and coexistence_found:
        return Verdict.COEXISTENCE, False
    if v_stable and u_unstable:
        return Verdict.V_WINS, False
    if u_stable and v_unstable:
        return Verdict.U_WINS, False
    return Verdict.UNDECIDED, False


def _extrapolate(
    last: np.ndarray | None = None,
    before: np.ndarray | None = None,
    earlier: np.ndarray | None = None,
) -> np.ndarray | None:
    """Start for the next sweep point from the last three points' solutions,
    newest first.

    On the uniform drift grid the Lagrange extrapolation through three
    points, 3*(last - before) + earlier, is exact for quadratics; through
    two it is the secant 2*last - before.  Where the prediction is not
    finite and strictly positive (inverse iteration refuses such a start,
    Newton wants a positive one) or there is no ``before``, the start is
    ``last``.
    """
    if before is None:
        return last
    guess = 2.0 * last - before if earlier is None else 3.0 * (last - before) + earlier
    # min > 0 refuses NaN and every entry <= 0; a finite max then refuses inf.
    # Both are selected by index, g[g.argmin()]: the element the reduction
    # returns, NaN and ±inf included, at about a third of its cost; a zero
    # of either sign meets both tests alike.
    if guess[guess.argmin()] > 0.0 and math.isfinite(guess[guess.argmax()]):
        return guess
    return last


def _predicted_starts(warm: dict) -> tuple:
    """The v_hat Newton start and the kappa and tau eigen starts of the next
    point, each extrapolated from the (last, before, earlier) solutions
    ``warm`` keeps."""
    return tuple(_extrapolate(*warm.get(key, ())) for key in ("v_hat", "kappa", "tau"))


def _evaluate_point(problem: Problem, alpha2: float, warm: dict) -> SweepPoint:
    """Classify one drift rate against the problem's first-species lone state.

    ``warm`` carries the last three points' second-species lone states and
    kappa and tau Perron vectors, newest first, and the last point's pair;
    this point starts from their extrapolation (``_predicted_starts``) and
    the pair, puts its own solutions first and drops the oldest.
    """
    cfg, eff, op1 = problem.cfg, problem.eff, problem.op1
    op2 = transport_for(problem.grid, cfg.params.d2, alpha2)
    tol = cfg.tolerances.steady
    marginal = cfg.tolerances.marginal
    v_start, kappa_start, tau_start = _predicted_starts(warm)
    kappa_report = problem._invasion(op2, problem.u_hat.u, kappa_start).report
    kappa = kappa_report.stability_index

    if v_start is not None:
        try:
            v_state = solve_single_steady(op2, eff, tol=tol, method="newton", u0=v_start)
        except SolverError:
            v_state = solve_single_steady(op2, eff, tol=tol)
    else:
        v_state = solve_single_steady(op2, eff, tol=tol)
    tau_report = problem._invasion(op1, v_state.u, tau_start).report
    tau = tau_report.stability_index
    solutions = {"v_hat": v_state.u, "kappa": kappa_report.phi, "tau": tau_report.phi}
    for key, solution in solutions.items():
        warm[key] = (solution, *warm.get(key, ())[:2])

    # The pair search runs only where its answer can change the verdict:
    # both indices beyond the marginal band with the same sign.  Elsewhere
    # the point records no pair and no note, and drops the warm pair.
    note = ""
    pair = None
    if point_outcome(kappa, tau, True, marginal) != point_outcome(kappa, tau, False, marginal):
        try:
            pair = solve_coexistence(op1, op2, eff, guess=warm.get("pair"), tol=tol)
            if pair is None and warm.get("pair") is not None:
                pair = solve_coexistence(op1, op2, eff, tol=tol)
        except SolverError as exc:
            note = f"coexistence solve: {exc}"
    if pair is not None:
        warm["pair"] = (pair.u, pair.v)
        if pair.jacobian_near_singular:
            note = "coexistence Jacobian nearly singular"
    else:
        warm.pop("pair", None)

    found = pair is not None
    verdict, anomaly = point_outcome(kappa, tau, found, marginal)
    return SweepPoint(
        alpha2=alpha2,
        kappa=kappa,
        tau=tau,
        coexistence_found=found,
        verdict=verdict,
        anomaly=anomaly,
        note=note,
    )


def sweep_alpha2(cfg: RunConfig) -> SweepResult:
    """Classify outcomes across the admissible drift range of species 2.

    The range is the open interval from omega1*alpha1 to alpha1, with
    omega1 = d2/d1; points sit on a uniform interior grid.  The resident
    profile of species 1 is solved once (it does not involve alpha2).
    Points run in order, each warm-starting from the points before: the
    second species' lone state (Newton) and the kappa and tau eigen solves
    start from the quadratic extrapolation of the last three points'
    profile and Perron vectors (``_extrapolate``; second-order
    predictor-corrector continuation, Allgower & Georg 1990), and the pair
    search from the previous pair.  The first point and the edge probes
    start cold; the second starts from the first point's solutions, the
    third from the secant of the first two.
    """
    p = cfg.params
    if not (p.d1 > p.d2 > 0.0):
        raise ConfigError("the sweep needs d1 > d2 > 0 so the drift range is nonempty")
    if p.alpha1 <= 0.0:
        raise ConfigError("the sweep needs alpha1 > 0")
    if cfg.points < 8:
        raise ConfigError(f"the sweep needs at least 8 points, got {cfg.points}")

    omega1 = p.d2 / p.d1
    lo = omega1 * p.alpha1
    hi = p.alpha1
    n_points = cfg.points
    alphas = [lo + (hi - lo) * j / (n_points + 1) for j in range(1, n_points + 1)]

    problem = Problem(cfg)
    warm: dict = {}
    points = [_evaluate_point(problem, alpha2, warm) for alpha2 in alphas]

    # The longest contiguous coexistence run (the first of equal ones),
    # then one bisection probe per edge, lo then hi.
    runs = [
        list(run)
        for coexists, run in itertools.groupby(
            range(n_points), key=lambda i: points[i].verdict is Verdict.COEXISTENCE
        )
        if coexists
    ]
    edge_points: list[SweepPoint] = []
    window = None
    epsilon1 = epsilon2 = None
    if runs:
        longest = max(runs, key=len)
        i0, i1 = longest[0], longest[-1]
        edges = [alphas[i0], alphas[i1]]
        outer = (alphas[i0 - 1] if i0 > 0 else lo, alphas[i1 + 1] if i1 < n_points - 1 else hi)
        for k, beyond in enumerate(outer):
            mid = (beyond + edges[k]) / 2.0
            probe = _evaluate_point(problem, mid, {})
            edge_points.append(probe)
            if probe.verdict is Verdict.COEXISTENCE:
                edges[k] = mid
        window = tuple(edges)
        epsilon1, epsilon2 = edges[0] - lo, hi - edges[1]

    anomalies = [
        f"alpha2={pt.alpha2!r}: both lone states attracting yet a positive pair exists"
        for pt in points + edge_points
        if pt.anomaly
    ]
    return SweepResult(
        omega1=omega1,
        lo=lo,
        hi=hi,
        points=points,
        edge_points=edge_points,
        window=window,
        epsilon1=epsilon1,
        epsilon2=epsilon2,
        anomalies=anomalies,
    )


def sweep_transitions(result: SweepResult) -> list[tuple[str, str]]:
    """Adjacent verdict changes along the sweep, as (from, to) pairs."""
    pattern = result.verdict_pattern()
    return [(a, b) for a, b in zip(pattern, pattern[1:]) if a != b]


# ---------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------

# Two-grid residual ratios for second-order quantities land near 4; the
# window is generous because boundary cells contribute first-order terms
# over a vanishing measure.
_RATIO_WINDOW = (2.5, 6.0)
_NO_HALVED_GRID = (
    "two-grid comparison skipped: no halved grid (odd n, n < 6, or the "
    "halved grid breaks the Peclet guard or the positivity of r or K)"
)


def run_verification(cfg: RunConfig) -> dict:
    """Steady-state check suite: integrals, bands, eigen identities.

    Returns a report dict with one entry per check carrying pass/skip
    status and the measured residuals.  Four checks are 1-D diagnostics,
    reported as skipped on a 2-D habitat.  Checks that need a coarser
    companion grid share the problem's halved-grid companion; where it has
    none (``Problem.coarse``) they skip the comparison and say so in a
    ``note``.
    ``lone_states`` says how each lone state the checks used was solved:
    its method, iterations and residual.
    """
    problem = Problem(cfg)
    eff, resident = problem.eff, problem.u_hat
    skipped = {"pass": True, "skipped": True, "note": "1-D diagnostic"}
    kappa, tau = problem.kappa, problem.tau
    checks: dict[str, dict] = {
        "capacity_gap": _capacity_gap_check(resident, eff),
        "log_slope_band": skipped,
        "eigen_difference": skipped,
        "invasion_indices": {
            "pass": True,
            "skipped": False,
            "kappa": kappa.report.stability_index,
            "kappa_verdict": kappa.verdict,
            "tau": tau.report.stability_index,
            "tau_verdict": tau.verdict,
        },
        "drift_band": {
            "pass": True,
            "skipped": True,
            "note": "requires a strictly decreasing invasion potential on a 1-D habitat",
        },
        "coexistence_identities": skipped,
    }
    lone = {"u_hat": resident, "v_hat": problem.v_hat}

    if problem.grid.dim == 1:
        # The band is a constant-capacity statement; heterogeneous
        # capacity is flattened to its mean before checking it.
        companion, _ = constant_capacity_companion(problem.op1, eff, tol=cfg.tolerances.steady)
        lone["u_hat_constant_capacity"] = companion
        band = log_slope_report(companion.u, problem.op1)
        checks["log_slope_band"] = {
            "pass": band.violations == 0,
            "skipped": False,
            "violations": band.violations,
            "band": band.band,
            "bounds": [band.lower, band.upper],
            "heterogeneous_violations": log_slope_report(resident.u, problem.op1).violations,
        }
        fine = _eigen_difference(problem)
        entry = checks["eigen_difference"] = {
            "pass": True,
            "skipped": False,
            "residual": fine.residual,
            "index_gap": fine.growth_first - fine.growth_second,
        }
        if problem.coarse is None:
            entry["note"] = _NO_HALVED_GRID
        else:
            coarse = _eigen_difference(problem.coarse)
            ratio = coarse.residual / fine.residual if fine.residual > 0.0 else None
            entry["coarse_residual"] = coarse.residual
            entry["ratio"] = ratio  # null at a zero fine residual: JSON has no inf
            entry["pass"] = bool(
                ratio is not None and _RATIO_WINDOW[0] <= ratio <= _RATIO_WINDOW[1]
            ) or (fine.residual <= 1e-12 and coarse.residual <= 1e-12)
            lone["u_hat_halved_grid"] = problem.coarse.u_hat
        if np.all(np.diff(invasion_potential(resident.u, eff)) < 0.0):
            # kappa's eigenvector keeps d2·phi_x/phi <= alpha2 up to the slope band.
            slope = log_slope_report(kappa.report.phi, problem.op2)
            excess = float(np.max(problem.op2.d * slope.slope - problem.op2.alpha))
            checks["drift_band"] = {
                "pass": excess <= slope.band,
                "skipped": False,
                "max_excess": excess,
                "band": slope.band,
            }
        checks["coexistence_identities"] = _identity_check(problem)

    return {
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
        "lone_states": {
            name: {"method": s.method, "iterations": s.iterations, "residual": s.residual}
            for name, s in lone.items()
        },
    }


def _capacity_gap_check(state: SteadyState, eff) -> dict:
    """Pass iff a lone state's capacity-gap integrals agree to its residual.

    linear - quadratic = (h/r1)·Σ R exactly for R = L·u + r·r1·u·(1 - u/K1),
    as each column of L sums to 0: at most (|Ω|/r1)·‖R‖∞, the recorded
    residual, plus rounding.  To first order each operation moves a cell's
    term by ε/2 of w = r·max(K1, u)²/K1: 4 in R's reaction part (u/K1's
    error passes whole into 1 - u/K1), N + 2 in linear and N + 5 in
    quadratic (with N - 1 additions in any order), so (N + 6)·ε·h·Σ w in
    all.  L·u counts as computed: its rounding is the floor of R itself.
    """
    gap, n = capacity_gap_integral(state.u, eff), eff.grid.size
    w = eff.r * np.maximum(state.u, eff.K1) ** 2 / eff.K1
    rounding = (n + 6) * np.finfo(float).eps * float(np.sum(w))
    bound = eff.grid.cell_volume * (n * state.residual / eff.r1 + rounding)
    return {"pass": bool(abs(gap.linear - gap.quadratic) <= bound), "skipped": False, **vars(gap)}


def _eigen_difference(problem: Problem):
    # kappa's eigen solve is op2's eigenpair under the same potential and
    # tolerance, so the identity reuses it.
    potential = invasion_potential(problem.u_hat.u, problem.eff)
    return eigen_difference_residual(
        problem.op1,
        problem.op2,
        potential,
        eigen_tol=problem.cfg.tolerances.eigen,
        second=problem.kappa.report,
    )


def _identity_check(problem: Problem) -> dict:
    tol = problem.cfg.tolerances.steady
    try:
        pair = solve_coexistence(problem.op1, problem.op2, problem.eff, tol=tol)
    except SolverError as exc:
        return {"pass": True, "skipped": True, "note": f"no pair: {exc}"}
    if pair is None:
        return {"pass": True, "skipped": True, "note": "no strictly positive pair at these parameters"}
    report = coexistence_identity_residuals(pair, problem.op1, problem.op2)
    balance = per_capita_balance_residual(pair.u, pair.v, problem.op1, problem.op2)
    entry: dict = {
        "pass": True,
        "skipped": False,
        "residual_first": report.residual_first,
        "residual_second": report.residual_second,
        "balance_max": balance,
    }
    coarse = problem.coarse
    if coarse is None:
        entry["note"] = _NO_HALVED_GRID
    else:
        why = "no strictly positive pair"
        try:
            cpair = solve_coexistence(coarse.op1, coarse.op2, coarse.eff, tol=tol)
        except SolverError as exc:
            cpair, why = None, str(exc)
        if cpair is None:
            entry["note"] = f"two-grid comparison skipped: on the halved grid, {why}"
        else:
            creport = coexistence_identity_residuals(cpair, coarse.op1, coarse.op2)
            ratios = []
            for fine_r, coarse_r in (
                (report.residual_first, creport.residual_first),
                (report.residual_second, creport.residual_second),
            ):
                if fine_r > 1e-13:
                    ratios.append(coarse_r / fine_r)
            entry["ratios"] = ratios
            entry["pass"] = all(
                _RATIO_WINDOW[0] <= r <= _RATIO_WINDOW[1] for r in ratios
            ) or (
                report.residual_first <= 1e-10 and report.residual_second <= 1e-10
            )
    return entry
