"""Acceptance gate: one test per numbered criterion, one printed line each.

Every test prints ``criterion N: PASS/FAIL (measured ...)`` before its
assertions so the measured values are visible either with ``pytest -s``
or in the captured-output block of a failure report.  Budgets and
tolerances are asserted exactly as stated; nothing is loosened to make
a criterion pass.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from rivercomp.config import parse_config
from rivercomp.experiments import preset_config, run_figure, sweep_alpha2, sweep_transitions
from rivercomp.grid import Grid
from rivercomp.model import build_effective_params, reaction
from rivercomp.operators import transport_for
from rivercomp.output import write_bundle
from rivercomp.spectral import (
    eigen_difference_residual,
    invasion_potential,
    principal_eigenpair,
    semitrivial_stability,
)
from rivercomp.steady import (
    capacity_gap_integral,
    constant_capacity_companion,
    log_slope_report,
    solve_single_steady,
)
from rivercomp.stepping import Stepper, Verdict, integrate

from oracles import dense_principal_eigenpair

WEAK = dict(d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_conservation_suite():
    t0 = time.time()
    rng = np.random.default_rng(20260814)
    worst_rel = 0.0
    for trial in range(100):
        if trial % 5 == 4:
            dim, n = 2, int(rng.integers(4, 24))
        else:
            dim, n = 1, int(rng.integers(8, 192))
        grid = Grid(dim, 0.0, 1.0, n)
        d = 10.0 ** rng.uniform(-3.0, 0.5)
        alpha = rng.uniform(0.0, 1.99) * d / grid.h
        op = transport_for(grid, d, alpha)
        dense = op.matrix.toarray()
        col_sums = np.abs(dense.sum(axis=0)).max()
        scale = 1e-12 * grid.size * np.abs(dense).max()
        worst_rel = max(worst_rel, col_sums / scale if scale else 0.0)

    cfg = parse_config(overrides=dict(WEAK, mu=0.009, n=96))
    grid = cfg.grid()
    eff = cfg.effective(grid)
    op1 = transport_for(grid, 0.08, 0.05)
    op2 = transport_for(grid, 0.07, 0.04)
    stepper = Stepper(op1, op2, cfg.params, eff, dt=cfg.dt)
    vol = grid.cell_volume
    worst_mass = 0.0
    u = rng.uniform(0.0, 1.0, grid.size)
    v = rng.uniform(0.0, 1.0, grid.size)
    for _ in range(20):
        ru, rv = reaction(u, v, eff), reaction(v, u, eff)  # the folded form's oracles
        stepper.start(u, v)
        stepper.step()
        un, vn = stepper.fields()
        gap_u = abs(vol * (un.sum() - u.sum() - stepper.dt * ru.sum()))
        gap_v = abs(vol * (vn.sum() - v.sum() - stepper.dt * rv.sum()))
        worst_mass = max(worst_mass, gap_u, gap_v)
        u, v = un, vn

    elapsed = time.time() - t0
    ok = worst_rel <= 1.0 and worst_mass <= 1e-11 and elapsed < 10.0
    _line(1, ok, f"column sums {worst_rel:.3f}x tolerance, mass gap {worst_mass:.2e}, {elapsed:.1f}s")
    assert worst_rel <= 1.0
    assert worst_mass <= 1e-11
    assert elapsed < 10.0


def test_criterion_2_transform_equivalence():
    t0 = time.time()
    cfg = parse_config(overrides=dict(WEAK, mu=0.009, n=128, t_end=50.0))
    grid = cfg.grid()
    eff = cfg.effective(grid)
    op1 = transport_for(grid, 0.08, 0.05)
    op2 = transport_for(grid, 0.07, 0.04)
    u0, v0 = cfg.initial_fields(grid)
    folded = Stepper(op1, op2, cfg.params, eff, dt=cfg.dt, form="folded")
    raw = Stepper(op1, op2, cfg.params, eff, dt=cfg.dt, form="raw")
    # 500 steps of dt 0.1, sampled every fifth: full fields at each sample.
    times = tuple(k * cfg.dt for k in range(0, 501, 5))
    traj_f = integrate(folded, u0, v0, 50.0, n_samples=100, snapshot_times=times)
    traj_r = integrate(raw, u0, v0, 50.0, n_samples=100, snapshot_times=times)
    assert sorted(traj_f.snapshots) == sorted(traj_r.snapshots) == list(traj_f.times)
    worst = 0.0
    for t in traj_f.times:
        (uf, vf), (ur, vr) = traj_f.snapshots[t], traj_r.snapshots[t]
        worst = max(worst, float(np.max(np.abs(uf - ur))), float(np.max(np.abs(vf - vr))))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _line(2, ok, f"max sample gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_3_eigen_oracle():
    t0 = time.time()
    rng = np.random.default_rng(4851)
    grid = Grid(1, 0.0, 1.0, 48)
    worst = 0.0
    for _ in range(100):
        d = 10.0 ** rng.uniform(-2.0, 0.5)
        alpha = rng.uniform(0.0, 30.0) * d
        op = transport_for(grid, d, alpha)
        potential = rng.uniform(-1.0, 1.0, grid.size)
        iterative = principal_eigenpair(op, potential)
        dense = dense_principal_eigenpair(op, potential)
        assert iterative.phi.min() > 0.0
        assert dense.phi.min() > 0.0
        worst = max(worst, abs(iterative.growth_rate - dense.growth_rate))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _line(3, ok, f"max index gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_4_steady_state_identity_suite():
    t0 = time.time()

    def setup(n):
        cfg = parse_config(overrides=dict(WEAK, mu=0.009, n=n))
        grid = cfg.grid()
        eff = cfg.effective(grid)
        op1 = transport_for(grid, 0.08, 0.05)
        op2 = transport_for(grid, 0.07, 0.04)
        return cfg, grid, eff, op1, op2

    cfg, grid, eff, op1, op2 = setup(256)
    u_hat = solve_single_steady(op1, eff)
    gap = capacity_gap_integral(u_hat.u, eff)

    companion, _ = constant_capacity_companion(op1, eff)
    band = log_slope_report(companion.u, op1)

    residuals = {}
    for n in (128, 256):
        _, g_n, eff_n, op1_n, op2_n = setup(n)
        res_n = solve_single_steady(op1_n, eff_n)
        rep = eigen_difference_residual(op1_n, op2_n, invasion_potential(res_n.u, eff_n))
        residuals[n] = rep.residual
    ratio = residuals[128] / residuals[256]

    v_hat = solve_single_steady(op2, eff)
    kappa = semitrivial_stability(op2, u_hat.u, eff).report.stability_index
    tau = semitrivial_stability(op1, v_hat.u, eff).report.stability_index

    elapsed = time.time() - t0
    ok = (
        gap.linear > 0.0
        and band.violations == 0
        and 3.0 <= ratio <= 5.0
        and kappa < 0.0
        and tau > 0.0
        and elapsed < 120.0
    )
    _line(
        4,
        ok,
        f"gap {gap.linear:.4e}, band violations {band.violations}, "
        f"ratio {ratio:.3f}, kappa {kappa:.3e}, tau {tau:.3e}, {elapsed:.1f}s",
    )
    assert gap.linear > 0.0
    assert band.violations == 0
    assert 3.0 <= ratio <= 5.0
    assert kappa < 0.0
    assert tau > 0.0
    assert elapsed < 120.0


# fig8 at t=2000 is a slow transient; the first species' decay rate there
# (tau ~ 1.2e-3, see test_slow_movement_evidence.py) puts the verdict a
# few thousand time units later, so a long run carries it.
_FIGURE_RUNS = (
    ("fig1", None),
    ("fig8", None),
    ("fig8_long", {"t_end": 10000.0}),
    ("fig13", None),
    ("fig17", None),
    ("fig17_long", {"t_end": 5000.0}),
)


@pytest.fixture(scope="module")
def figure_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("figure-bundles")
    runs = {}
    t0 = time.time()
    for key, overrides in _FIGURE_RUNS:
        figure = key.split("_")[0]
        cfg, traj, outcome, report = run_figure(preset_config(figure, overrides))
        run_dir = write_bundle(cfg, report, traj=traj, out_dir=base / key)
        runs[key] = SimpleNamespace(
            figure=figure,
            overrides=overrides,
            cfg=cfg,
            outcome=outcome,
            dir=run_dir,
        )
    runs["elapsed"] = time.time() - t0
    return runs


def test_criterion_5_figure_outcomes(figure_runs):
    failures = []

    out1 = figure_runs["fig1"].outcome
    if out1.verdict is not Verdict.V_WINS or out1.final_norm_u >= 1e-3:
        failures.append(f"fig1 gave {out1.verdict.value} with |u|={out1.final_norm_u:.2e}")

    out8 = figure_runs["fig8"].outcome
    if (
        out8.verdict is not Verdict.UNDECIDED
        or out8.settled
        or min(out8.final_norm_u, out8.final_norm_v) <= 0.05
    ):
        failures.append(
            f"fig8 t=2000 gave {out8.verdict.value} (settled={out8.settled}) with "
            f"|u|={out8.final_norm_u:.2e}, |v|={out8.final_norm_v:.2e}"
        )
    out8_long = figure_runs["fig8_long"].outcome
    if out8_long.verdict is not Verdict.V_WINS or out8_long.final_norm_u >= out8_long.eps_extinct:
        failures.append(
            f"fig8 t=10000 gave {out8_long.verdict.value} with |u|={out8_long.final_norm_u:.2e}"
        )

    out13 = figure_runs["fig13"].outcome
    if out13.verdict is not Verdict.V_WINS:
        failures.append(f"fig13 gave {out13.verdict.value}")

    out17 = figure_runs["fig17"].outcome
    if out17.verdict is not Verdict.COEXISTENCE or out17.final_norm_v <= out17.final_norm_u:
        failures.append(
            f"fig17 t=80 gave {out17.verdict.value} with |u|={out17.final_norm_u:.4f}, "
            f"|v|={out17.final_norm_v:.4f}"
        )
    out17_long = figure_runs["fig17_long"].outcome
    if out17_long.verdict is not Verdict.V_WINS:
        failures.append(f"fig17 t=5000 gave {out17_long.verdict.value}")

    elapsed = figure_runs["elapsed"]
    if elapsed >= 900.0:
        failures.append(f"runtime {elapsed:.0f}s over budget")

    ok = not failures
    _line(
        5,
        ok,
        "; ".join(failures) if failures else f"all {len(_FIGURE_RUNS)} runs as stated, {elapsed:.0f}s",
    )
    assert not failures, "; ".join(failures)


def test_criterion_6_drift_rate_window():
    t0 = time.time()
    cfg = parse_config(
        overrides=dict(
            d1=0.002, d2=0.001, alpha1=0.001, mu=0.3, n=256, points=33,
            mode="sweep",
        )
    )
    result = sweep_alpha2(cfg)
    transitions = sweep_transitions(result)
    tol = cfg.tolerances.marginal
    not_v_wins = [p.alpha2 for p in result.points if p.verdict is not Verdict.V_WINS]
    near_zero = [p.alpha2 for p in result.points if not (p.kappa < -tol < tol < p.tau)]
    max_kappa = max(p.kappa for p in result.points)
    min_tau = min(p.tau for p in result.points)
    elapsed = time.time() - t0
    ok = (
        not result.anomalies
        and not not_v_wins
        and not near_zero
        and not transitions
        and result.window is None
        and elapsed < 600.0
    )
    pattern = ",".join(sorted(set(result.verdict_pattern())))
    _line(
        6,
        ok,
        f"verdicts {{{pattern}}}, max kappa {max_kappa:.3e}, min tau {min_tau:.3e}, "
        f"{len(transitions)} transitions, window {result.window}, {elapsed:.1f}s",
    )
    assert not result.anomalies
    assert not_v_wins == [], f"not VWins at alpha2 {not_v_wins}"
    assert near_zero == [], f"an index within tol_marginal of zero at alpha2 {near_zero}"
    assert transitions == []
    assert result.window is None
    assert elapsed < 600.0


def test_criterion_7_repeated_runs_are_byte_identical(figure_runs, tmp_path):
    mismatched = []
    for key, overrides in _FIGURE_RUNS:
        first = figure_runs[key].dir
        figure = figure_runs[key].figure
        cfg, traj, outcome, report = run_figure(preset_config(figure, overrides))
        second = write_bundle(cfg, report, traj=traj, out_dir=tmp_path / key)
        names_a = sorted(p.name for p in first.iterdir())
        names_b = sorted(p.name for p in second.iterdir())
        if names_a != names_b:
            mismatched.append(f"{key}: file sets differ")
            continue
        for name in names_a:
            if (first / name).read_bytes() != (second / name).read_bytes():
                mismatched.append(f"{key}/{name}")
    ok = not mismatched
    _line(
        7,
        ok,
        "; ".join(mismatched) if mismatched else f"all {len(_FIGURE_RUNS)} bundles byte-identical",
    )
    assert not mismatched, "; ".join(mismatched)
