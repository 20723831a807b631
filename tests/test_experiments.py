"""Preset catalog, drift-rate sweep, and the aggregated report builders.

Sweeps here run at coarse resolution so the file stays fast; the frozen
habitat (slow movement, moderate harvest) has no coexistence window, so
every interior point must classify as a second-species win.  The sweep
searches for a coexistence pair only where the answer can change the
verdict; an ungated copy of its point evaluation, kept here as an oracle,
searches at every point.  Its kappa and tau eigen solves start from the
previous points' Perron vectors; a copy that starts every one cold is
the oracle for that.  Its lone-state Newton and eigen solves start from
the secant prediction of the last two points; a sweep that starts each
point from the last point's solutions is the oracle for that.
"""

import json
from dataclasses import replace
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
from rivercomp.grid import Grid
from rivercomp.linsolve import factor_shifted
from rivercomp.model import build_effective_params
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


def coexisting_on(*spans):
    """A stand-in for ``_evaluate_point``: Coexistence where alpha2 lies in
    one of ``spans``, given in steps of the 8-point SLOW sweep (point j of
    the sweep sits at step j), and VWins elsewhere."""

    def evaluate(problem, alpha2, warm):
        step = (alpha2 - 0.0005) / 0.0005 * 9
        inside = any(a < step < b for a, b in spans)
        verdict = Verdict.COEXISTENCE if inside else Verdict.V_WINS
        return SweepPoint(alpha2, -1.0, -1.0, inside, verdict, False)

    return evaluate


@pytest.mark.parametrize(
    "spans, i0, i1, moved",
    [
        ([(2.4, 5.2)], 2, 4, (True, False)),  # only the lo probe lands inside
        ([(2.8, 6.6)], 2, 5, (False, True)),  # only the hi probe lands inside
        ([(2.8, 5.2)], 2, 4, (False, False)),
        ([(0.2, 8.8)], 0, 7, (True, True)),  # both probes go halfway to the range's ends
        ([(0.8, 2.2), (3.8, 6.2)], 3, 5, (False, False)),  # the longest run
        ([(0.8, 2.2), (4.8, 6.2)], 0, 1, (False, False)),  # the first of equal runs
    ],
)
def test_sweep_window_moves_each_edge_to_a_coexisting_probe(monkeypatch, spans, i0, i1, moved):
    monkeypatch.setattr(experiments, "_evaluate_point", coexisting_on(*spans))
    result = sweep_alpha2(parse_config(overrides=dict(SLOW, mode="sweep")))
    alphas = [p.alpha2 for p in result.points]
    outer = (alphas[i0 - 1] if i0 > 0 else result.lo, alphas[i1 + 1] if i1 < 7 else result.hi)
    edges = (alphas[i0], alphas[i1])
    mids = [(o + e) / 2.0 for o, e in zip(outer, edges)]
    assert [p.alpha2 for p in result.edge_points] == mids
    assert [p.verdict is Verdict.COEXISTENCE for p in result.edge_points] == list(moved)
    window = tuple(m if move else e for m, e, move in zip(mids, edges, moved))
    assert result.window == window
    assert (result.epsilon1, result.epsilon2) == (window[0] - result.lo, result.hi - window[1])


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
    # How each lone state the checks used was solved, outside ``checks``.
    lone = report["lone_states"]
    assert set(lone) == {"u_hat", "v_hat", "u_hat_constant_capacity", "u_hat_halved_grid"}
    for state in lone.values():
        assert state["method"] == "hybrid"
        assert type(state["iterations"]) is int
        assert state["residual"] < cfg.tolerances.steady


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


def test_problem_refuses_lone_states_at_unequal_harvest(monkeypatch):
    # The lone states and indices are of the folded model; at fig17's
    # mu1 != mu2 they are refused before any solve, while the operators
    # and coefficients a simulation reads are still built.
    solved = []
    monkeypatch.setattr(experiments, "solve_single_steady", lambda *a, **k: solved.append(a))
    problem = experiments.Problem(preset_config("fig17"))
    assert problem.cfg.reaction_form == "raw"
    for name in ("kappa", "tau", "u_hat", "v_hat"):
        with pytest.raises(ConfigError, match="the analyses need equal harvest fractions"):
            getattr(problem, name)
    assert solved == []
    assert problem.eff.K1.shape == (problem.grid.size,)


@pytest.mark.parametrize("n, coarse_n", [(64, 32), (6, 3), (63, None), (4, None)])
def test_problem_halves_even_grids_of_at_least_six_cells(n, coarse_n):
    problem = experiments.Problem(parse_config(overrides=dict(WEAK_FAMILY, n=n)))
    coarse = problem.coarse
    assert problem.coarse is coarse
    assert (None if coarse is None else coarse.grid.size) == coarse_n


def test_halved_grid_is_the_same_problem_on_half_the_cells():
    # The 65-cell grid samples r at its peak, so its dt cap lies 6e-6 below
    # the fine grid's default dt.  dt does not enter the halved grid: with
    # that dt defaulted or given, it is the same parameters on 65 cells,
    # sampled afresh there.
    peaked = dict(WEAK_FAMILY, mode="verify", r="1 + 9*sin(pi*x)", n=130)
    defaulted = parse_config(overrides=peaked)
    given = parse_config(overrides=dict(peaked, dt=defaulted.dt))
    assert "dt" in defaulted.defaulted and "dt" not in given.defaulted
    for cfg in (defaulted, given):
        coarse = experiments.Problem(cfg).coarse
        assert coarse is not None
        assert coarse.grid == Grid(1, 0.0, 1.0, 65)
        fresh = build_effective_params(cfg.params, coarse.grid, mu=cfg.params.mu1)
        for got, want in ((coarse.eff.rr1, fresh.rr1), (coarse.eff.K1, fresh.K1)):
            assert got.tobytes() == want.tobytes()
        assert coarse.op1.grid == coarse.op2.grid == coarse.grid


def spy_problems(monkeypatch):
    """Record the cell count of every ``Problem`` built."""
    built = []
    real = experiments.Problem.__init__

    def spy(self, cfg, grid=None):
        real(self, cfg, grid)
        built.append(self.grid.n)

    monkeypatch.setattr(experiments.Problem, "__init__", spy)
    return built


def test_verification_builds_its_halved_grid_once(monkeypatch):
    # Where a pair exists, both the eigen-difference and the identity checks
    # compare against the halved grid; they share one coarse problem.
    built = spy_problems(monkeypatch)
    report = run_verification(parse_config(overrides=dict(SYMMETRIC, mode="verify")))
    checks = report["checks"]
    assert "coarse_residual" in checks["eigen_difference"]
    assert checks["coexistence_identities"]["skipped"] is False
    assert "ratios" in checks["coexistence_identities"]
    assert "note" not in checks["eigen_difference"]
    assert "note" not in checks["coexistence_identities"]
    assert built == [64, 32]


def test_identity_check_judges_an_asymmetric_pair():
    # The narrow-sliver family inside its coexistence window: the species
    # move at different rates, so the weighted integrals are small but not
    # exact zeros, as they are for the symmetric family's pairs.
    cfg = parse_config(overrides=dict(SLOW, alpha2=7.314e-4, mu=0.997, mode="verify"))
    identities = run_verification(cfg)["checks"]["coexistence_identities"]
    assert identities["skipped"] is False
    assert identities["pass"] is True
    assert 0.0 < identities["residual_first"] < 1e-10
    assert 0.0 < identities["residual_second"] < 1e-10


def test_identity_check_notes_a_halved_grid_without_a_pair():
    # The same sliver pair: on its 32-cell halved grid the pair Newton hits
    # its iteration cap, so the fine pair is judged alone and the entry
    # says why the two-grid comparison was skipped.
    cfg = parse_config(overrides=dict(SLOW, alpha2=7.314e-4, mu=0.997, mode="verify"))
    identities = run_verification(cfg)["checks"]["coexistence_identities"]
    assert identities["skipped"] is False
    assert identities["pass"] is True
    assert "ratios" not in identities
    assert identities["note"].startswith("two-grid comparison skipped: on the halved grid, ")
    assert "coexistence Newton hit the iteration cap" in identities["note"]


@pytest.mark.parametrize("family, pair", [(dict(WEAK_FAMILY, n=129), False), (dict(SYMMETRIC, n=63), True)])
def test_verification_notes_the_skipped_two_grid_comparison(family, pair):
    # An odd n has no halved grid: the checks that compare against it judge
    # the fine grid alone and say the comparison was skipped.  The weak
    # family finds no pair; the symmetric one finds one, so the identity
    # check reaches its halved-grid branch too.
    report = run_verification(parse_config(overrides=dict(family, mode="verify")))
    assert report["all_pass"] is True
    checks = report["checks"]
    identities = checks["coexistence_identities"]
    assert identities["skipped"] is not pair
    for entry in [checks["eigen_difference"]] + ([identities] if pair else []):
        assert entry["skipped"] is False
        assert entry["note"].startswith("two-grid comparison skipped: no halved grid")
        assert not {"coarse_residual", "ratio", "ratios"} & set(entry)
    assert "u_hat_halved_grid" not in report["lone_states"]


def test_planar_verification_skips_the_1d_checks(monkeypatch):
    # On a 2-D habitat the four 1-D checks report their skip records, only
    # the two lone states are reported, and no halved grid is built.
    built = spy_problems(monkeypatch)
    cfg = parse_config(overrides=dict(WEAK_FAMILY, mode="verify", dim=2, n=12))
    report = run_verification(cfg)
    checks = report["checks"]
    assert list(checks) == [
        "capacity_gap",
        "log_slope_band",
        "eigen_difference",
        "invasion_indices",
        "drift_band",
        "coexistence_identities",
    ]
    skipped = {"pass": True, "skipped": True, "note": "1-D diagnostic"}
    for name in ("log_slope_band", "eigen_difference", "coexistence_identities"):
        assert checks[name] == skipped
    assert checks["drift_band"] == {
        "pass": True,
        "skipped": True,
        "note": "requires a strictly decreasing invasion potential on a 1-D habitat",
    }
    assert list(report["lone_states"]) == ["u_hat", "v_hat"]
    assert built == [12]


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
    # The lone states' Newton stalls there too: the report says they come
    # from the march, at a residual above the steady tolerance.
    for name in ("u_hat", "v_hat", "u_hat_halved_grid"):
        state = report["lone_states"][name]
        assert state["method"] == "long-time"
        assert 1e-10 < state["residual"] < 1e-7


# ---------------------------------------------------------------------
# capacity gap
# ---------------------------------------------------------------------


def test_capacity_gap_passes_at_constant_capacity_with_drift():
    # Drift against no-flux walls keeps u off the constant capacity, so
    # both integrals are positive; they agree to the lone state's residual.
    cfg = parse_config(overrides=dict(WEAK_FAMILY, mode="verify", n=128, K="1"))
    report = run_verification(cfg)
    gap = report["checks"]["capacity_gap"]
    assert gap["pass"] is True and gap["degenerate"] is True
    assert gap["linear"] > 1e-3
    assert report["all_pass"] is True


@pytest.mark.parametrize("n", [128, 256, 512, 1024])
def test_capacity_gap_passes_without_drift_at_constant_capacity(n):
    # u sits 4.4e-14 above K1.  At n >= 256 the gap, 4.389e-14, is 0.3%
    # under the bound's residual term, 4.40e-14: about what the rounding of
    # u/K1 moves the recorded residual by, and what the rounding term covers.
    cfg = parse_config(overrides=dict(WEAK_FAMILY, mode="verify", n=n, alpha1=0.0, alpha2=0.0, K="1"))
    assert run_verification(cfg)["checks"]["capacity_gap"]["pass"] is True


def test_capacity_gap_fails_when_the_recorded_residual_understates_the_state():
    # u scaled by 1 + 1e-10 has residual 2.4e-10, not the recorded 1.05e-11,
    # and moves the gap to 1.9e-10, only 1.7e-9 of the integrals.
    problem = experiments.Problem(parse_config(overrides=dict(WEAK_FAMILY, n=128)))
    state, check = problem.u_hat, experiments._capacity_gap_check
    assert check(state, problem.eff)["pass"] is True
    assert check(replace(state, u=state.u * (1.0 + 1e-10)), problem.eff)["pass"] is False


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
    v_start, kappa_start, tau_start = experiments._predicted_starts(warm)
    kappa_report = semitrivial_stability(
        op2, resident_u, eff, tol_marginal=cfg.tolerances.marginal, eigen_tol=cfg.tolerances.eigen,
        x0=kappa_start,
    ).report
    warm["kappa"] = (kappa_report.phi, *warm.get("kappa", ())[:2])
    kappa = kappa_report.stability_index
    if v_start is not None:
        try:
            v_state = solve_single_steady(op2, eff, tol=tol, method="newton", u0=v_start)
        except SolverError:
            v_state = solve_single_steady(op2, eff, tol=tol)
    else:
        v_state = solve_single_steady(op2, eff, tol=tol)
    warm["v_hat"] = (v_state.u, *warm.get("v_hat", ())[:2])
    tau_report = semitrivial_stability(
        op1, v_state.u, eff, tol_marginal=cfg.tolerances.marginal, eigen_tol=cfg.tolerances.eigen,
        x0=tau_start,
    ).report
    warm["tau"] = (tau_report.phi, *warm.get("tau", ())[:2])
    tau = tau_report.stability_index

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
    reports = iter(
        SimpleNamespace(report=SimpleNamespace(stability_index=i, phi=None)) for i in (kappa, tau)
    )
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


def test_failed_warm_lone_state_newton_falls_back_to_the_cold_solve(monkeypatch):
    # A predicted start whose Newton fails is dropped: the point solves its
    # second-species lone state cold and equals a point with no prediction.
    cfg = parse_config(overrides=dict(SLOW, mode="sweep"))
    problem = experiments.Problem(cfg)
    cold = experiments._evaluate_point(problem, 7e-4, {})
    methods = []

    def newton_fails(op, eff, **kwargs):
        methods.append(kwargs.get("method", "hybrid"))
        if kwargs.get("method") == "newton":
            raise SolverError("Newton stalled")
        return solve_single_steady(op, eff, **kwargs)

    monkeypatch.setattr(experiments, "solve_single_steady", newton_fails)
    resident = problem.u_hat.u
    warm = {"v_hat": (resident, resident)}
    point = experiments._evaluate_point(problem, 7e-4, warm)
    assert methods == ["newton", "hybrid"]
    assert point == cold
    assert warm["v_hat"][1] is resident


@pytest.mark.parametrize(
    "outcome, found, note",
    [
        (SolverError("Newton stalled"), False, "coexistence solve: Newton stalled"),
        (
            SimpleNamespace(u=1.0, v=2.0, jacobian_near_singular=True),
            True,
            "coexistence Jacobian nearly singular",
        ),
    ],
)
def test_sweep_point_notes_a_failed_or_near_singular_pair(monkeypatch, outcome, found, note):
    # Both lone states invadable, so the pair search runs; its failure or a
    # near-singular pair Jacobian is the point's note.
    reports = iter(
        SimpleNamespace(report=SimpleNamespace(stability_index=-1e-3, phi=None)) for _ in range(2)
    )
    monkeypatch.setattr(experiments, "semitrivial_stability", lambda *args, **kwargs: next(reports))

    def search(*args, **kwargs):
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(experiments, "solve_coexistence", search)
    problem = experiments.Problem(parse_config(overrides=dict(SLOW, mode="sweep")))
    warm = {"pair": (0.5, 0.5)}
    point = experiments._evaluate_point(problem, 7e-4, warm)
    assert (point.coexistence_found, point.note) == (found, note)
    assert point.verdict is (Verdict.COEXISTENCE if found else Verdict.UNDECIDED)
    assert warm.get("pair") == ((1.0, 2.0) if found else None)


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
    """Record (growth rate, residual target, potential) of every invasion eigen solve."""
    solves = []

    def spy(invader_op, resident, eff, **kwargs):
        verdict = semitrivial_stability(invader_op, resident, eff, **kwargs)
        potential = invasion_potential(resident, eff)
        rows = spectral._shifted_matvec(invader_op, potential)[1]
        target = max(kwargs["eigen_tol"], 64.0 * np.finfo(float).eps) * float(rows.max())
        solves.append((verdict.report.growth_rate, target, potential))
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
    for (got, target, _), (want, _, _) in zip(warm_solves, cold_solves):
        assert abs(got - want) <= target


def test_criterion_6_sweep_eigen_work(monkeypatch):
    # With every eigen solve started cold this sweep takes 644 iterations
    # and 330 shift factorizations; started from the previous point's
    # solutions, 243 and 170, and 64 warm Newton updates for the 32
    # second-species lone states; from the secant of the last two points,
    # 150 and 108, and 33 updates.  From the three-point prediction it
    # takes 90 and 78: past the first few points each warm kappa takes one
    # solve on one factorization, and each warm tau one solve, which lands
    # at the rounding floor and needs no polish.
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
    newton_updates = []

    def count_updates(op, eff, **kwargs):
        state = solve_single_steady(op, eff, **kwargs)
        if kwargs.get("method") == "newton":
            newton_updates.append(state.iterations)
        return state

    monkeypatch.setattr(experiments, "solve_single_steady", count_updates)
    cfg = parse_config(overrides=dict(SLOW, mode="sweep", n=256, points=33))
    result = sweep_alpha2(cfg)
    assert result.verdict_pattern() == ["VWins"] * 33
    assert len(reports) == 66
    assert sum(r.iterations for r in reports) <= 90
    assert len(factored) <= 78
    assert len(factored) == sum(r.factorizations for r in reports)
    assert len(newton_updates) == 32
    assert sum(newton_updates) <= 33


# ---------------------------------------------------------------------
# starts predicted from the last three points
# ---------------------------------------------------------------------


def test_secant_extrapolates_a_positive_prediction():
    # Two points give the secant, one gives the last solution.
    last, before = np.array([2.0, 3.0]), np.array([1.0, 4.0])
    np.testing.assert_array_equal(experiments._extrapolate(last, before), [3.0, 2.0])
    assert experiments._extrapolate(last) is last
    assert experiments._extrapolate() is None


def test_three_points_extrapolate_a_quadratic_exactly():
    # Integer-valued quadratics on the uniform grid, j = 0, 1, 2 -> 3.
    # Every value is an integer below 2**53, so the prediction is exact.
    def quadratic(j):
        return np.array([1.0 + j * j, 7.0 - 3.0 * j + 2.0 * j * j, 50.0 - j * j])

    earlier, before, last = quadratic(0), quadratic(1), quadratic(2)
    np.testing.assert_array_equal(experiments._extrapolate(last, before, earlier), quadratic(3))
    # The secant through the last two misses the curvature.
    assert not np.array_equal(experiments._extrapolate(last, before), quadratic(3))


@pytest.mark.parametrize("before", [[1.0, 6.0], [1.0, 3.0], [1.0, np.inf], [1.0, np.nan]])
def test_secant_falls_back_to_the_last_solution(before):
    # A zero, negative or non-finite entry would be refused as an eigen
    # start and is no positive Newton start, so the last solution is used.
    last = np.array([2.0, 1.5])
    assert experiments._extrapolate(last, np.array(before)) is last


@pytest.mark.parametrize(
    "earlier",
    [[1.0, 0.0], [1.0, -1.0], [1.0, np.inf], [1.0, np.nan]],
    ids=["zero", "negative", "inf", "nan"],
)
def test_three_point_prediction_falls_back_to_the_last_solution(earlier):
    # 3*(last - before) is [3, 0], so ``earlier`` alone decides the sign
    # and finiteness of the prediction's second entry.
    last, before = np.array([2.0, 1.5]), np.array([1.0, 1.5])
    assert experiments._extrapolate(last, before, np.array(earlier)) is last
    np.testing.assert_array_equal(
        experiments._extrapolate(last, before, np.array([1.0, 0.5])), [4.0, 0.5]
    )


@pytest.mark.parametrize("family", sorted(_ORACLE_FAMILIES))
def test_predicted_sweep_agrees_with_the_unpredicted_one(monkeypatch, family):
    cfg = parse_config(overrides=dict(_ORACLE_FAMILIES[family], mode="sweep"))
    solves = spy_eigen_solves(monkeypatch)
    predicted = sweep_alpha2(cfg)
    predicted_solves = solves[:]
    solves.clear()
    monkeypatch.setattr(experiments, "_extrapolate", lambda last=None, *older: last)
    plain = sweep_alpha2(cfg)

    assert predicted.window == plain.window
    assert predicted.anomalies == plain.anomalies
    assert len(predicted.edge_points) == len(plain.edge_points)
    for got, want in zip(predicted.points + predicted.edge_points, plain.points + plain.edge_points):
        assert got.alpha2 == want.alpha2
        assert (got.verdict, got.anomaly) == (want.verdict, want.anomaly)
        assert (got.coexistence_found, got.note) == (want.coexistence_found, want.note)
    # Both lone states meet the Newton tolerance, not bitwise agreement.  The
    # Perron root of a Metzler matrix moves by at most the sup-norm of a
    # diagonal change, so each growth rate may differ by the change its
    # resident makes to the potential (zero for kappa, whose resident is
    # u_hat), plus the two solves' residual targets.
    assert len(predicted_solves) == len(solves)
    for (got, got_target, got_p), (want, want_target, want_p) in zip(predicted_solves, solves):
        shift = float(np.abs(got_p - want_p).max())
        assert abs(got - want) <= shift + got_target + want_target


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
