"""Experiment orchestration: presets, pipelines, the drift-rate sweep.

Three layers live here.  ``simulate_run`` wires a parsed config into the
operator/stepper stack and classifies the outcome.  The preset catalog
(`PRESETS`) pins down the named parameter sets used for qualitative
reproduction runs; each carries its full parameter set so runs are
self-contained.  ``sweep_alpha2`` walks the second species' drift rate
across the interval where the competition outcome is known to flip,
classifying every point from the two invasion eigenvalues, and brackets
the coexistence window with one bisection refinement per edge.  A
coexistence Newton solve runs only at points whose two indices share a
sign beyond the marginal band: by the competitive trichotomy (Hsu, Smith
& Waltman 1996) these are the only points where finding a pair can change
the verdict.  ``run_verification`` aggregates the steady-state
integral/band/eigenvalue checks into a pass/fail report.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, parse_config
from .errors import ConfigError, SolverError
from .model import classify_regime
from .operators import transport_for
from .spectral import (
    drift_band_excess,
    eigen_difference_residual,
    invasion_potential,
    semitrivial_stability,
)
from .steady import (
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
            reaction_form="raw",
            dim=2,
            n=64,
            t_end=80.0,
            tolerances=_TRANSIENT_TOL,
        ),
    )
}


def preset_config(figure: str, overrides: dict | None = None) -> RunConfig:
    """RunConfig for a catalog preset, with optional extra overrides."""
    if figure not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown figure preset {figure!r}; known presets: {known}")
    merged = dict(PRESETS[figure].overrides)
    merged.setdefault("out_dir", figure)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "tolerances" and "tolerances" in merged:
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = value
    return parse_config(overrides=merged)


# ---------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------


def _operators(cfg: RunConfig, grid):
    p = cfg.params
    return transport_for(grid, p.d1, p.alpha1), transport_for(grid, p.d2, p.alpha2)


def simulate_run(cfg: RunConfig) -> tuple[Trajectory, Outcome]:
    """Integrate the competition system per config and classify the end state."""
    grid = cfg.grid()
    eff = cfg.effective(grid)
    op1, op2 = _operators(cfg, grid)
    stepper = Stepper(op1, op2, cfg.params, eff, dt=cfg.dt, form=cfg.reaction_form)
    u0, v0 = cfg.initial_fields(grid)
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
        "truncated": traj.truncated,
    }


def run_figure(
    figure: str, overrides: dict | None = None
) -> tuple[RunConfig, Trajectory, Outcome, dict]:
    cfg = preset_config(figure, overrides)
    traj, outcome = simulate_run(cfg)
    preset = PRESETS[figure]
    report = simulate_report(traj, outcome)
    report["figure"] = figure
    report["expected"] = preset.expected.value if preset.expected is not None else None
    report["matches_expected"] = (
        None if preset.expected is None else outcome.verdict == preset.expected
    )
    return cfg, traj, outcome, report


def steady_report(cfg: RunConfig) -> dict:
    """Solve both single-species states and attempt a coexistence pair."""
    grid = cfg.grid()
    eff = cfg.effective(grid)
    op1, op2 = _operators(cfg, grid)
    tol = cfg.tolerances.steady
    u_state = solve_single_steady(op1, eff, tol=tol)
    v_state = solve_single_steady(op2, eff, tol=tol)
    report = {
        "u_state": _state_summary(u_state, eff),
        "v_state": _state_summary(v_state, eff),
    }
    try:
        pair = solve_coexistence(op1, op2, eff, tol=tol)
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
    grid = cfg.grid()
    eff = cfg.effective(grid)
    op1, op2 = _operators(cfg, grid)
    tol = cfg.tolerances.steady
    u_state = solve_single_steady(op1, eff, tol=tol)
    v_state = solve_single_steady(op2, eff, tol=tol)
    kappa = semitrivial_stability(
        op2, u_state.u, eff, tol_marginal=cfg.tolerances.marginal, eigen_tol=cfg.tolerances.eigen
    )
    tau = semitrivial_stability(
        op1, v_state.u, eff, tol_marginal=cfg.tolerances.marginal, eigen_tol=cfg.tolerances.eigen
    )
    regime = classify_regime(cfg.params)
    return {
        "u_state": {
            "stability_index": kappa.report.stability_index,
            "growth_rate": kappa.report.growth_rate,
            "verdict": kappa.verdict,
            "iterations": kappa.report.iterations,
            "residual": kappa.report.residual,
        },
        "v_state": {
            "stability_index": tau.report.stability_index,
            "growth_rate": tau.report.growth_rate,
            "verdict": tau.verdict,
            "iterations": tau.report.iterations,
            "residual": tau.report.residual,
        },
        "drift_ratio_1": regime.ratio1,
        "drift_ratio_2": regime.ratio2,
        "faster_disperser_higher_ratio": regime.holds_c1,
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


def _evaluate_point(
    alpha2: float,
    cfg: RunConfig,
    grid,
    eff,
    op1,
    resident_u: np.ndarray,
    warm: dict,
) -> SweepPoint:
    op2 = transport_for(grid, cfg.params.d2, alpha2)
    tol = cfg.tolerances.steady
    marginal = cfg.tolerances.marginal
    kappa = semitrivial_stability(
        op2, resident_u, eff, tol_marginal=marginal, eigen_tol=cfg.tolerances.eigen
    ).report.stability_index

    v_warm = warm.get("v_hat")
    if v_warm is not None:
        try:
            v_state = solve_single_steady(op2, eff, tol=tol, method="newton", u0=v_warm)
        except SolverError:
            v_state = solve_single_steady(op2, eff, tol=tol)
    else:
        v_state = solve_single_steady(op2, eff, tol=tol)
    warm["v_hat"] = v_state.u
    tau = semitrivial_stability(
        op1, v_state.u, eff, tol_marginal=marginal, eigen_tol=cfg.tolerances.eigen
    ).report.stability_index

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
    Points are processed in contiguous blocks, one per worker, so warm
    starts stay within a block and results are independent of scheduling.
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

    grid = cfg.grid()
    eff = cfg.effective(grid)
    op1 = transport_for(grid, p.d1, p.alpha1)
    resident = solve_single_steady(op1, eff, tol=cfg.tolerances.steady)

    def run_block(block: list[int]) -> list[SweepPoint]:
        warm: dict = {}
        return [
            _evaluate_point(alphas[i], cfg, grid, eff, op1, resident.u, warm) for i in block
        ]

    indices = list(range(n_points))
    n_blocks = max(1, min(cfg.workers, n_points))
    blocks = [list(chunk) for chunk in np.array_split(indices, n_blocks)]
    if n_blocks == 1:
        results = [run_block(blocks[0])]
    else:
        with ThreadPoolExecutor(max_workers=n_blocks) as pool:
            results = list(pool.map(run_block, blocks))
    points = [pt for block in results for pt in block]

    anomalies = [
        f"alpha2={pt.alpha2!r}: both lone states attracting yet a positive pair exists"
        for pt in points
        if pt.anomaly
    ]

    # Longest contiguous coexistence run, then one bisection probe per edge.
    best_start, best_len = -1, 0
    run_start = -1
    for i, pt in enumerate(points + [None]):  # sentinel closes a trailing run
        if pt is not None and pt.verdict is Verdict.COEXISTENCE:
            if run_start < 0:
                run_start = i
        elif run_start >= 0:
            if i - run_start > best_len:
                best_start, best_len = run_start, i - run_start
            run_start = -1

    edge_points: list[SweepPoint] = []
    window = None
    epsilon1 = epsilon2 = None
    if best_len > 0:
        i0, i1 = best_start, best_start + best_len - 1
        w_lo, w_hi = alphas[i0], alphas[i1]
        left_outer = alphas[i0 - 1] if i0 > 0 else lo
        right_outer = alphas[i1 + 1] if i1 < n_points - 1 else hi
        for mid, side in (((left_outer + w_lo) / 2.0, "lo"), ((w_hi + right_outer) / 2.0, "hi")):
            probe = _evaluate_point(mid, cfg, grid, eff, op1, resident.u, {})
            edge_points.append(probe)
            if probe.anomaly:
                anomalies.append(
                    f"alpha2={probe.alpha2!r}: both lone states attracting yet a positive pair exists"
                )
            if probe.verdict is Verdict.COEXISTENCE:
                if side == "lo":
                    w_lo = mid
                else:
                    w_hi = mid
        window = (w_lo, w_hi)
        epsilon1 = w_lo - lo
        epsilon2 = hi - w_hi

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
# The linear and quadratic capacity-gap integrals differ by the cell sum
# of the transport term, which telescopes to zero exactly, so their
# mismatch is bounded by the steady-state solver residual, not by the
# mesh width.
_GAP_REL_TOL = 1e-8


def run_verification(cfg: RunConfig) -> dict:
    """Steady-state check suite: integrals, bands, eigen identities.

    Returns a report dict with one entry per check carrying pass/skip
    status and the measured residuals.  Checks that need a coarser
    companion grid derive one by halving n (skipped if that would break
    the Peclet guard).
    """
    grid = cfg.grid()
    eff = cfg.effective(grid)
    p = cfg.params
    op1, op2 = _operators(cfg, grid)
    tol = cfg.tolerances.steady
    checks: dict[str, dict] = {}

    resident = solve_single_steady(op1, eff, tol=tol)

    gap = capacity_gap_integral(resident.u, eff)
    if gap.degenerate:
        gap_pass = abs(gap.linear) <= 1e-9 and abs(gap.quadratic) <= 1e-9
    else:
        rel = abs(gap.linear - gap.quadratic) / max(abs(gap.quadratic), 1e-300)
        gap_pass = gap.linear > 0.0 and rel <= _GAP_REL_TOL
    checks["capacity_gap"] = {
        "pass": bool(gap_pass),
        "skipped": False,
        "linear": gap.linear,
        "quadratic": gap.quadratic,
        "degenerate": gap.degenerate,
    }

    if grid.dim == 1:
        # The band is a constant-capacity statement; heterogeneous
        # capacity is flattened to its mean before checking it.
        companion, _ = constant_capacity_companion(op1, eff, tol=tol)
        band = log_slope_report(companion.u, p.d1, p.alpha1, grid)
        resident_band = log_slope_report(resident.u, p.d1, p.alpha1, grid)
        checks["log_slope_band"] = {
            "pass": band.violations == 0,
            "skipped": False,
            "violations": band.violations,
            "band": band.band,
            "bounds": [band.lower, band.upper],
            "heterogeneous_violations": resident_band.violations,
        }
    else:
        checks["log_slope_band"] = {"pass": True, "skipped": True, "note": "1-D diagnostic"}

    potential = invasion_potential(resident.u, eff)
    if grid.dim == 1:
        fine = eigen_difference_residual(
            op1, op2, potential, p.d1, p.d2, p.alpha1, p.alpha2, eigen_tol=cfg.tolerances.eigen
        )
        entry = {
            "pass": True,
            "skipped": False,
            "residual": fine.residual,
            "index_gap": fine.growth_first - fine.growth_second,
        }
        coarse_cfg = _halved(cfg)
        if coarse_cfg is not None:
            cgrid = coarse_cfg.grid()
            ceff = coarse_cfg.effective(cgrid)
            cop1, cop2 = _operators(coarse_cfg, cgrid)
            cres = solve_single_steady(cop1, ceff, tol=tol)
            coarse = eigen_difference_residual(
                cop1,
                cop2,
                invasion_potential(cres.u, ceff),
                p.d1,
                p.d2,
                p.alpha1,
                p.alpha2,
                eigen_tol=cfg.tolerances.eigen,
            )
            ratio = coarse.residual / fine.residual if fine.residual > 0.0 else math.inf
            entry["coarse_residual"] = coarse.residual
            entry["ratio"] = ratio
            entry["pass"] = bool(_RATIO_WINDOW[0] <= ratio <= _RATIO_WINDOW[1]) or (
                fine.residual <= 1e-12 and coarse.residual <= 1e-12
            )
        checks["eigen_difference"] = entry
    else:
        checks["eigen_difference"] = {"pass": True, "skipped": True, "note": "1-D diagnostic"}

    kappa = semitrivial_stability(
        op2, resident.u, eff, tol_marginal=cfg.tolerances.marginal, eigen_tol=cfg.tolerances.eigen
    )
    v_state = solve_single_steady(op2, eff, tol=tol)
    tau = semitrivial_stability(
        op1, v_state.u, eff, tol_marginal=cfg.tolerances.marginal, eigen_tol=cfg.tolerances.eigen
    )
    checks["invasion_indices"] = {
        "pass": True,
        "skipped": False,
        "kappa": kappa.report.stability_index,
        "kappa_verdict": kappa.verdict,
        "tau": tau.report.stability_index,
        "tau_verdict": tau.verdict,
    }

    if grid.dim == 1 and bool(np.all(np.diff(potential) < 0.0)):
        excess = drift_band_excess(kappa.report.phi, p.d2, p.alpha2, grid)
        checks["drift_band"] = {
            "pass": excess.max_excess <= excess.band,
            "skipped": False,
            "max_excess": excess.max_excess,
            "band": excess.band,
        }
    else:
        checks["drift_band"] = {
            "pass": True,
            "skipped": True,
            "note": "requires a strictly decreasing invasion potential on a 1-D habitat",
        }

    checks["coexistence_identities"] = _identity_check(cfg, grid, eff, op1, op2, tol)

    return {
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks.values()),
    }


def _halved(cfg: RunConfig) -> RunConfig | None:
    if cfg.n % 2 != 0 or cfg.n // 2 < 3:
        return None
    overrides = {k: v for k, v in cfg.echo_dict().items() if k != "_defaulted"}
    overrides["n"] = cfg.n // 2
    try:
        return parse_config(overrides=overrides)
    except ConfigError:
        return None


def _identity_check(cfg: RunConfig, grid, eff, op1, op2, tol: float) -> dict:
    if grid.dim != 1:
        return {"pass": True, "skipped": True, "note": "1-D diagnostic"}
    p = cfg.params
    try:
        pair = solve_coexistence(op1, op2, eff, tol=tol)
    except SolverError as exc:
        return {"pass": True, "skipped": True, "note": f"no pair: {exc}"}
    if pair is None:
        return {"pass": True, "skipped": True, "note": "no strictly positive pair at these parameters"}
    report = coexistence_identity_residuals(pair, op1, op2, p)
    balance = per_capita_balance_residual(pair.u, pair.v, p, grid)
    entry: dict = {
        "pass": True,
        "skipped": False,
        "residual_first": report.residual_first,
        "residual_second": report.residual_second,
        "balance_max": balance.max_abs,
    }
    coarse_cfg = _halved(cfg)
    if coarse_cfg is not None:
        cgrid = coarse_cfg.grid()
        ceff = coarse_cfg.effective(cgrid)
        cop1, cop2 = _operators(coarse_cfg, cgrid)
        try:
            cpair = solve_coexistence(cop1, cop2, ceff, tol=tol)
        except SolverError:
            cpair = None
        if cpair is not None:
            creport = coexistence_identity_residuals(cpair, cop1, cop2, p)
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
