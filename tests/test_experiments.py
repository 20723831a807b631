"""Preset catalog, drift-rate sweep, and the aggregated report builders.

Sweeps here run at coarse resolution so the file stays fast; the frozen
habitat (slow movement, moderate harvest) has no coexistence window, so
every interior point must classify as a second-species win.  The sweep
searches for a coexistence pair only where the answer can change the
verdict; an ungated copy of its point evaluation, kept here as an oracle,
searches at every point.  Its kappa and tau eigen solves start from the
previous point's Perron vectors; a copy that starts every one cold is
the oracle for that.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rivercomp import experiments, spectral
from rivercomp.config import parse_config
from rivercomp.errors import ConfigError, SolverError
from rivercomp.experiments import (
    PRESETS,
    SweepPoint,
    SweepResult,
    eigen_report,
    point_outcome,
    preset_config,
    run_verification,
    steady_report,
    sweep_alpha2,
    sweep_transitions,
)
from rivercomp.linsolve import factor_shifted
from rivercomp.operators import transport_for
from rivercomp.spectral import invasion_potential, principal_eigenpair, semitrivial_stability
from rivercomp.steady import solve_coexistence, solve_single_steady
from rivercomp.stepping import Verdict

SLOW = dict(d1=0.002, d2=0.001, alpha1=0.001, mu=0.3, n=64, points=8)
WEAK_FAMILY = dict(d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04, mu=0.009)
# Identical species: a continuum of coexistence pairs splits one lone state.
SYMMETRIC = dict(d1=0.05, d2=0.05, alpha1=0.02, alpha2=0.02, mu=0.1, n=64)


def test_unknown_preset_error_lists_catalog():
    with pytest.raises(ConfigError, match="known presets") as err:
        preset_config("fig99")
    assert "fig8" in str(err.value)


def test_preset_merges_overrides():
    cfg = preset_config("fig1", {"n": 64, "t_end": None})
    assert cfg.n == 64
    assert cfg.out_dir == "fig1"
    assert cfg.params.d1 == 0.08
    # A None override keeps the preset value.
    assert cfg.t_end == PRESETS["fig1"].overrides["t_end"]


def test_preset_tolerance_overrides_merge_not_replace():
    base = preset_config("fig17")
    cfg = preset_config("fig17", {"tolerances": {"steady": 1e-9}})
    assert cfg.tolerances.steady == 1e-9
    assert cfg.tolerances.settle == base.tolerances.settle


@pytest.mark.parametrize(
    "kappa,tau,found,verdict,anomaly",
    [
        (-1e-3, 1e-3, False, Verdict.V_WINS, False),
        (1e-3, -1e-3, False, Verdict.U_WINS, False),
        (-1e-3, -1e-3, True, Verdict.COEXISTENCE, False),
        (1e-3, 1e-3, True, Verdict.UNDECIDED, True),
        (-1e-3, -1e-3, False, Verdict.UNDECIDED, False),
        (1e-3, 1e-3, False, Verdict.UNDECIDED, False),
        (0.0, 1e-3, False, Verdict.UNDECIDED, False),
        (-1e-3, 0.0, True, Verdict.UNDECIDED, False),
    ],
)
def test_point_outcome_decision_table(kappa, tau, found, verdict, anomaly):
    assert point_outcome(kappa, tau, found, 1e-7) == (verdict, anomaly)


def test_sweep_without_window_classifies_every_point_v_wins():
    cfg = parse_config(overrides=dict(SLOW, mode="sweep"))
    result = sweep_alpha2(cfg)
    assert result.omega1 == 0.5
    assert result.lo == pytest.approx(0.0005)
    assert result.hi == pytest.approx(0.001)
    assert len(result.points) == 8
    assert result.verdict_pattern() == ["VWins"] * 8
    assert result.window is None
    assert result.anomalies == []
    assert sweep_transitions(result) == []


def test_sweep_parameter_validation():
    with pytest.raises(ConfigError, match="d1 > d2"):
        sweep_alpha2(parse_config(overrides=dict(SLOW, d1=0.001, d2=0.002)))
    with pytest.raises(ConfigError, match="alpha1 > 0"):
        sweep_alpha2(parse_config(overrides=dict(SLOW, alpha1=0.0)))
    with pytest.raises(ConfigError, match="at least 8"):
        sweep_alpha2(parse_config(overrides=dict(SLOW, points=4)))


def test_sweep_transitions_on_synthetic_pattern():
    def pt(alpha2, verdict):
        return SweepPoint(
            alpha2=alpha2, kappa=0.0, tau=0.0, coexistence_found=False,
            verdict=verdict, anomaly=False,
        )

    result = SweepResult(
        omega1=0.5, lo=0.0, hi=1.0,
        points=[
            pt(0.1, Verdict.V_WINS),
            pt(0.2, Verdict.V_WINS),
            pt(0.3, Verdict.COEXISTENCE),
            pt(0.4, Verdict.COEXISTENCE),
            pt(0.5, Verdict.U_WINS),
        ],
        edge_points=[], window=(0.25, 0.45), epsilon1=None, epsilon2=None,
    )
    assert sweep_transitions(result) == [
        ("VWins", "Coexistence"),
        ("Coexistence", "UWins"),
    ]


def test_verification_suite_passes_on_weak_harvest_habitat():
    cfg = preset_config("fig1", {"n": 128})
    report = run_verification(cfg)
    assert report["all_pass"] is True
    checks = report["checks"]
    assert set(checks) == {
        "capacity_gap",
        "log_slope_band",
        "eigen_difference",
        "invasion_indices",
        "drift_band",
        "coexistence_identities",
    }
    assert checks["capacity_gap"]["pass"] is True
    assert checks["coexistence_identities"]["skipped"] is True


def test_eigen_report_weak_harvest_verdicts():
    cfg = preset_config("fig1", {"n": 128})
    report = eigen_report(cfg)
    assert report["u_state"]["verdict"] == "unstable"
    assert report["v_state"]["verdict"] == "stable"
    assert report["u_state"]["stability_index"] < 0.0
    assert report["v_state"]["stability_index"] > 0.0
    assert report["faster_disperser_higher_ratio"] is True
    for state in ("u_state", "v_state"):
        assert type(report[state]["factorizations"]) is int
        assert 1 <= report[state]["factorizations"] <= report[state]["iterations"]


def test_steady_report_finds_no_pair_in_weak_harvest_habitat():
    cfg = preset_config("fig1", {"n": 128})
    report = steady_report(cfg)
    assert report["coexistence"]["found"] is False
    assert report["u_state"]["capacity_gap"] > 0.0
    assert report["v_state"]["residual"] < cfg.tolerances.steady


def test_problem_solves_each_lone_state_once(monkeypatch):
    solved = []

    def spy(op, eff, **kwargs):
        solved.append(op.alpha)
        return solve_single_steady(op, eff, **kwargs)

    monkeypatch.setattr(experiments, "solve_single_steady", spy)
    problem = experiments.Problem(parse_config(overrides=dict(WEAK_FAMILY, n=64)))
    for _ in range(2):
        assert problem.kappa.verdict == "unstable"
        assert problem.tau.verdict == "stable"
        assert problem.u_hat.residual < problem.cfg.tolerances.steady
    assert solved == [0.05, 0.04]


@pytest.mark.parametrize("n, coarse_n", [(64, 32), (6, 3), (63, None), (4, None)])
def test_problem_halves_even_grids_of_at_least_six_cells(n, coarse_n):
    problem = experiments.Problem(parse_config(overrides=dict(WEAK_FAMILY, n=n)))
    coarse = problem.coarse
    assert problem.coarse is coarse
    assert (None if coarse is None else coarse.grid.size) == coarse_n


def test_verification_parses_its_halved_grid_once(monkeypatch):
    # Where a pair exists, both the eigen-difference and the identity checks
    # compare against the halved grid; they share one coarse problem.
    parsed = []

    def spy(*args, **kwargs):
        parsed.append(kwargs["overrides"]["n"])
        return parse_config(*args, **kwargs)

    monkeypatch.setattr(experiments, "parse_config", spy)
    report = run_verification(parse_config(overrides=dict(SYMMETRIC, mode="verify")))
    checks = report["checks"]
    assert "coarse_residual" in checks["eigen_difference"]
    assert checks["coexistence_identities"]["skipped"] is False
    assert "ratios" in checks["coexistence_identities"]
    assert parsed == [32]


# The fast-contrast family of the benchmark's verify menu: at n >= 512 its
# cold pair Newton stalls at the rounding floor of L·u, and the note that
# says so is compared as exact text by the benchmark reference.
FAST = dict(d1=3.0, d2=0.8, alpha1=0.7, alpha2=0.03, mu=0.1)
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


@pytest.mark.parametrize("n", [512, 1024])
def test_fast_family_stall_note_matches_the_benchmark_reference(n):
    want = json.loads(REFERENCE.read_text())["verify"][f"fast/n={n}"]["checks"]
    report = run_verification(parse_config(overrides=dict(FAST, mode="verify", n=n)))
    got = report["checks"]["coexistence_identities"]
    assert got["note"] == want["coexistence_identities"]["note"]
    assert got["note"].startswith("no pair: coexistence Newton stalled at residual ")


# ---------------------------------------------------------------------
# pair search only where it can change the verdict
# ---------------------------------------------------------------------


def ungated_evaluate_point(problem, alpha2, warm):
    """A sweep point with a pair search, and a cold retry, at every point."""
    cfg, grid, eff, op1, resident_u = (
        problem.cfg, problem.grid, problem.eff, problem.op1, problem.u_hat.u
    )
    op2 = transport_for(grid, cfg.params.d2, alpha2)
    tol = cfg.tolerances.steady
    warm["kappa"] = semitrivial_stability(
        op2, resident_u, eff, tol_marginal=cfg.tolerances.marginal, eigen_tol=cfg.tolerances.eigen,
        x0=warm["kappa"].phi if "kappa" in warm else None,
    ).report
    kappa = warm["kappa"].stability_index
    v_warm = warm.get("v_hat")
    if v_warm is not None:
        try:
            v_state = solve_single_steady(op2, eff, tol=tol, method="newton", u0=v_warm)
        except SolverError:
            v_state = solve_single_steady(op2, eff, tol=tol)
    else:
        v_state = solve_single_steady(op2, eff, tol=tol)
    warm["v_hat"] = v_state.u
    warm["tau"] = semitrivial_stability(
        op1, v_state.u, eff, tol_marginal=cfg.tolerances.marginal, eigen_tol=cfg.tolerances.eigen,
        x0=warm["tau"].phi if "tau" in warm else None,
    ).report
    tau = warm["tau"].stability_index

    note = ""
    found = False
    try:
        pair = solve_coexistence(op1, op2, eff, guess=warm.get("pair"), tol=tol)
        if pair is None and warm.get("pair") is not None:
            pair = solve_coexistence(op1, op2, eff, tol=tol)
    except SolverError as exc:
        pair = None
        note = f"coexistence solve: {exc}"
    if pair is not None:
        found = True
        warm["pair"] = (pair.u, pair.v)
        if pair.jacobian_near_singular:
            note = "coexistence Jacobian nearly singular"
    else:
        warm.pop("pair", None)

    verdict, anomaly = point_outcome(kappa, tau, found, cfg.tolerances.marginal)
    return SweepPoint(
        alpha2=alpha2, kappa=kappa, tau=tau, coexistence_found=found,
        verdict=verdict, anomaly=anomaly, note=note,
    )


def pair_can_decide(point, tol):
    return min(point.kappa, point.tau) > tol or max(point.kappa, point.tau) < -tol


def spy_pair_searches(monkeypatch):
    """Record the alpha2 of every pair search the sweep makes."""
    searched = []

    def spy(op1, op2, eff, **kwargs):
        searched.append(op2.alpha)
        return solve_coexistence(op1, op2, eff, **kwargs)

    monkeypatch.setattr(experiments, "solve_coexistence", spy)
    return searched


@pytest.mark.parametrize(
    "kappa, tau, searches",
    [
        (1e-3, 1e-3, True),  # a pair would be an anomaly
        (-1e-3, -1e-3, True),  # a pair means coexistence
        (-1e-3, 1e-3, False),
        (1e-3, -1e-3, False),
        (5e-8, 1e-3, False),  # marginal
        (-1e-3, -5e-8, False),
    ],
)
def test_pair_search_runs_where_the_indices_share_a_sign(monkeypatch, kappa, tau, searches):
    reports = iter(SimpleNamespace(report=SimpleNamespace(stability_index=i)) for i in (kappa, tau))
    monkeypatch.setattr(experiments, "semitrivial_stability", lambda *args, **kwargs: next(reports))
    searched = spy_pair_searches(monkeypatch)
    cfg = parse_config(overrides=dict(SLOW, mode="sweep"))
    problem = experiments.Problem(cfg)
    resident = problem.u_hat.u
    warm = {"pair": (resident, resident)}
    point = experiments._evaluate_point(problem, 7e-4, warm)
    assert bool(searched) is searches
    assert (point.kappa, point.tau) == (kappa, tau)
    if not searches:
        assert (point.coexistence_found, point.note) == (False, "")
        assert "pair" not in warm


def test_criterion_6_family_sweep_searches_for_no_pair(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no criterion-6 point can change its verdict on a pair")

    monkeypatch.setattr(experiments, "solve_coexistence", refuse)
    for mu in (0.1, 0.3, 0.7):
        result = sweep_alpha2(parse_config(overrides=dict(SLOW, mode="sweep", mu=mu)))
        assert result.verdict_pattern() == ["VWins"] * 8
        assert not any(p.coexistence_found or p.note for p in result.points)


def test_mutually_invasible_points_still_search_for_a_pair(monkeypatch):
    searched = spy_pair_searches(monkeypatch)
    cfg = parse_config(overrides=dict(SLOW, mode="sweep", K="1 + x", points=16))
    result = sweep_alpha2(cfg)
    tol = cfg.tolerances.marginal
    mutual = [p.alpha2 for p in result.points if max(p.kappa, p.tau) < -tol]
    assert mutual
    assert sorted(set(searched)) == sorted(
        p.alpha2 for p in result.points + result.edge_points if pair_can_decide(p, tol)
    )


_ORACLE_FAMILIES = {
    "criterion 6": dict(SLOW),
    "K = 1 + x": dict(SLOW, K="1 + x", points=16),
    "weak": dict(d1=0.08, d2=0.07, alpha1=0.05, mu=0.009, n=64, points=8),
    "fast": dict(d1=3.0, d2=0.8, alpha1=0.7, mu=0.1, n=64, points=8),
    # The narrow-sliver family: one of these points sits in the window.
    "sliver": dict(SLOW, mu=0.997, points=120, tolerances={"marginal": 1e-9}),
}


@pytest.mark.parametrize("family", sorted(_ORACLE_FAMILIES))
def test_gated_sweep_agrees_with_the_ungated_oracle(monkeypatch, family):
    cfg = parse_config(overrides=dict(_ORACLE_FAMILIES[family], mode="sweep"))
    gated = sweep_alpha2(cfg)
    monkeypatch.setattr(experiments, "_evaluate_point", ungated_evaluate_point)
    oracle = sweep_alpha2(cfg)

    assert gated.window == oracle.window
    assert gated.anomalies == oracle.anomalies
    assert len(gated.edge_points) == len(oracle.edge_points)
    tol = cfg.tolerances.marginal
    for got, want in zip(gated.points + gated.edge_points, oracle.points + oracle.edge_points):
        assert (got.alpha2, got.kappa, got.tau) == (want.alpha2, want.kappa, want.tau)
        assert (got.verdict, got.anomaly) == (want.verdict, want.anomaly)
        if not pair_can_decide(got, tol):
            assert (got.coexistence_found, got.note) == (False, "")
    if family == "sliver":
        assert gated.window is not None


# ---------------------------------------------------------------------
# eigen solves warm-started from the previous point
# ---------------------------------------------------------------------


def cold_eigen_evaluate_point(problem, alpha2, warm, evaluate=experiments._evaluate_point):
    """A sweep point whose kappa and tau eigen solves start from x = 1."""
    warm.pop("kappa", None)
    warm.pop("tau", None)
    return evaluate(problem, alpha2, warm)


def spy_eigen_solves(monkeypatch):
    """Record (growth rate, residual target) of every invasion eigen solve."""
    solves = []

    def spy(invader_op, resident, eff, **kwargs):
        verdict = semitrivial_stability(invader_op, resident, eff, **kwargs)
        rows = spectral._shifted_matvec(invader_op, invasion_potential(resident, eff))[1]
        target = max(kwargs["eigen_tol"], 64.0 * np.finfo(float).eps) * float(rows.max())
        solves.append((verdict.report.growth_rate, target))
        return verdict

    monkeypatch.setattr(experiments, "semitrivial_stability", spy)
    return solves


@pytest.mark.parametrize("family", sorted(_ORACLE_FAMILIES))
def test_warm_eigen_sweep_agrees_with_the_cold_oracle(monkeypatch, family):
    cfg = parse_config(overrides=dict(_ORACLE_FAMILIES[family], mode="sweep"))
    solves = spy_eigen_solves(monkeypatch)
    warm = sweep_alpha2(cfg)
    warm_solves = solves[:]
    solves.clear()
    monkeypatch.setattr(experiments, "_evaluate_point", cold_eigen_evaluate_point)
    cold = sweep_alpha2(cfg)
    cold_solves = solves

    assert warm.window == cold.window
    assert warm.anomalies == cold.anomalies
    assert len(warm.edge_points) == len(cold.edge_points)
    for got, want in zip(warm.points + warm.edge_points, cold.points + cold.edge_points):
        assert got.alpha2 == want.alpha2
        assert (got.verdict, got.anomaly) == (want.verdict, want.anomaly)
        assert (got.coexistence_found, got.note) == (want.coexistence_found, want.note)
    # The lone states do not depend on the eigen solves, so the n-th solve
    # of both sweeps is the same matrix; each eigenvalue meets its target.
    assert len(warm_solves) == len(cold_solves)
    for (got, target), (want, _) in zip(warm_solves, cold_solves):
        assert abs(got - want) <= target


def test_criterion_6_sweep_eigen_work(monkeypatch):
    # With every eigen solve started cold this sweep takes 644 iterations
    # and 330 shift factorizations.
    factored = []

    def spy(*args, **kwargs):
        factored.append(kwargs["shift"])
        return factor_shifted(*args, **kwargs)

    monkeypatch.setattr(spectral, "factor_shifted", spy)
    reports = []

    def record(*args, **kwargs):
        verdict = semitrivial_stability(*args, **kwargs)
        reports.append(verdict.report)
        return verdict

    monkeypatch.setattr(experiments, "semitrivial_stability", record)
    cfg = parse_config(overrides=dict(SLOW, mode="sweep", n=256, points=33))
    result = sweep_alpha2(cfg)
    assert result.verdict_pattern() == ["VWins"] * 33
    assert len(reports) == 66
    assert sum(r.iterations for r in reports) <= 322
    assert len(factored) <= 200
    assert len(factored) == sum(r.factorizations for r in reports)


def test_verification_solves_each_eigenpair_once(monkeypatch):
    # kappa's eigenpair is the eigen-difference identity's second one, on
    # the fine grid and on the halved one.
    solved = []

    def spy(op, potential, **kwargs):
        solved.append((op.grid.size, op.alpha, potential.tobytes()))
        return principal_eigenpair(op, potential, **kwargs)

    monkeypatch.setattr(spectral, "principal_eigenpair", spy)
    report = run_verification(preset_config("fig1", {"n": 128}))
    assert report["all_pass"] is True
    assert "coarse_residual" in report["checks"]["eigen_difference"]
    assert len(solved) == len(set(solved)) == 5
    assert sorted((n, alpha) for n, alpha, _ in solved) == [
        (64, 0.04), (64, 0.05), (128, 0.04), (128, 0.05), (128, 0.05)
    ]
