"""Steady-state solvers and the diagnostic reports built on top of them.

The degenerate equal-movement, equal-harvest family is the main fixture for
the coexistence machinery: when both species share d, alpha and the harvest
fraction, any split u = c*uhat, v = (1-c)*uhat of the single-species profile
solves the pair system exactly, which pins the identity residuals at zero.
"""

import numpy as np
import pytest

from rivercomp.config import parse_config
from rivercomp.errors import ConfigError, SolverError
from rivercomp.model import ModelParams, build_effective_params
from rivercomp.grid import Grid
from rivercomp import steady
from rivercomp.operators import transport_for
from rivercomp.steady import (
    capacity_gap_integral,
    coexistence_identity_residuals,
    constant_capacity_companion,
    log_slope,
    log_slope_report,
    per_capita_balance_residual,
    solve_coexistence,
    solve_single_steady,
)

WEAK = dict(d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04)


def weak_setup(n=128, mu=0.009, **overrides):
    base = dict(WEAK, mu=mu, n=n)
    base.update(overrides)
    cfg = parse_config(overrides=base)
    grid = cfg.grid()
    eff = cfg.effective(grid)
    op1 = transport_for(grid, cfg.params.d1, cfg.params.alpha1)
    op2 = transport_for(grid, cfg.params.d2, cfg.params.alpha2)
    return cfg, grid, eff, op1, op2


def symmetric_setup(n=64):
    cfg = parse_config(
        overrides=dict(d1=0.05, d2=0.05, alpha1=0.02, alpha2=0.02, mu=0.1, n=n)
    )
    grid = cfg.grid()
    eff = cfg.effective(grid)
    op = transport_for(grid, 0.05, 0.02)
    return cfg, grid, eff, op


def test_constant_capacity_no_drift_lands_on_capacity():
    params = ModelParams(**WEAK, mu1=0.0, mu2=0.0, K_expr="2.5")
    grid = Grid(1, 0.0, 1.0, 48)
    eff = build_effective_params(params, grid, mu=0.0)
    op = transport_for(grid, params.d1, 0.0)
    state = solve_single_steady(op, eff)
    assert state.residual < 1e-12
    np.testing.assert_allclose(state.u, 2.5, rtol=1e-12)


def test_no_drift_nonconstant_capacity_is_not_the_capacity():
    # With pure diffusion the capacity profile is not a stationary solution:
    # its curvature leaves a nonzero flux divergence, so the solver must
    # settle somewhere else and the capacity gap integral must be positive.
    cfg, grid, eff, op1, _ = weak_setup(mu=0.0, alpha1=0.0, alpha2=0.0)
    state = solve_single_steady(op1, eff)
    assert state.residual < 1e-10
    assert np.max(np.abs(state.u - eff.K1)) > 0.1
    gap = capacity_gap_integral(state.u, eff)
    assert gap.linear > 0.0
    assert not gap.degenerate


def test_newton_and_long_time_paths_agree():
    cfg, grid, eff, op1, _ = weak_setup(n=256)
    newton = solve_single_steady(op1, eff, method="newton")
    marched = solve_single_steady(op1, eff, method="long-time")
    assert newton.method == "newton"
    assert marched.method == "long-time"
    assert np.max(np.abs(newton.u - marched.u)) < 1e-8


def test_singular_newton_system_raises_solver_error():
    # At u = K1/2 the growth term's derivative vanishes, so the Jacobian is
    # the pure-diffusion operator, whose columns sum to zero: exactly
    # singular.  The error must be a SolverError, the one the hybrid
    # method's fallback to marching catches.
    cfg, grid, eff, op1, _ = weak_setup(n=32, mu=0.2, alpha1=0.0, alpha2=0.0, K="1 + x")
    with pytest.raises(SolverError, match="Newton system is singular"):
        solve_single_steady(op1, eff, method="newton", u0=0.5 * eff.K1)


def test_capacity_gap_linear_and_quadratic_routes_agree():
    cfg, grid, eff, op1, _ = weak_setup(n=256)
    state = solve_single_steady(op1, eff)
    gap = capacity_gap_integral(state.u, eff)
    assert gap.linear > 0.0
    rel = abs(gap.linear - gap.quadratic) / gap.linear
    assert rel < 1e-8


def test_capacity_gap_degenerate_for_constant_capacity():
    params = ModelParams(**WEAK, mu1=0.0, mu2=0.0, K_expr="2.5")
    grid = Grid(1, 0.0, 1.0, 48)
    eff = build_effective_params(params, grid, mu=0.0)
    op = transport_for(grid, params.d1, 0.0)
    state = solve_single_steady(op, eff)
    gap = capacity_gap_integral(state.u, eff)
    assert gap.degenerate
    assert abs(gap.linear) < 1e-12


def test_log_slope_vanishes_without_drift_on_constant_capacity():
    params = ModelParams(**WEAK, mu1=0.0, mu2=0.0, K_expr="2.5")
    grid = Grid(1, 0.0, 1.0, 48)
    eff = build_effective_params(params, grid, mu=0.0)
    op = transport_for(grid, params.d1, 0.0)
    state = solve_single_steady(op, eff)
    assert np.max(np.abs(log_slope(state.u, grid))) < 1e-8


def test_companion_profile_stays_inside_slope_band():
    cfg, grid, eff, op1, _ = weak_setup()
    companion, const_eff = constant_capacity_companion(op1, eff, tol=1e-10)
    assert float(np.ptp(const_eff.K1)) == 0.0
    report = log_slope_report(companion.u, op1)
    assert report.violations == 0
    assert report.slope.min() > 0.0


def test_no_coexistence_pair_in_weak_harvest_habitat():
    cfg, grid, eff, op1, op2 = weak_setup()
    assert solve_coexistence(op1, op2, eff) is None


class TestSymmetricFamily:
    def test_cold_start_splits_the_single_profile_in_half(self):
        cfg, grid, eff, op = symmetric_setup()
        single = solve_single_steady(op, eff)
        pair = solve_coexistence(op, op, eff)
        assert pair is not None
        assert pair.jacobian_near_singular
        assert pair.residual < 1e-10
        assert np.max(np.abs(pair.u + pair.v - single.u)) < 1e-9
        assert pair.u.min() > 0.5
        assert pair.v.min() > 0.5

    def test_any_split_of_the_single_profile_is_accepted(self):
        cfg, grid, eff, op = symmetric_setup()
        single = solve_single_steady(op, eff)
        pair = solve_coexistence(op, op, eff, guess=(0.25 * single.u, 0.75 * single.u))
        assert pair is not None
        assert pair.iterations == 0
        assert pair.residual < 1e-10

    def test_identity_residuals_vanish_exactly_on_the_full_window(self):
        cfg, grid, eff, op = symmetric_setup()
        single = solve_single_steady(op, eff)
        pair = solve_coexistence(op, op, eff, guess=(0.25 * single.u, 0.75 * single.u))
        report = coexistence_identity_residuals(pair, op, op)
        # Equal movement rates make both integrands' prefactors d1 - d2 and
        # a1 - a2 exact zeros, so no rounding survives in either sum.
        assert report.residual_first == 0.0
        assert report.residual_second == 0.0

    def test_per_capita_balance_cancels(self):
        cfg, grid, eff, op = symmetric_setup()
        single = solve_single_steady(op, eff)
        balance = per_capita_balance_residual(0.25 * single.u, 0.75 * single.u, op, op)
        assert balance < 1e-10


def test_coexistence_pair_survives_near_total_harvest():
    cfg, grid, eff, op1, op2 = weak_setup(n=64, mu=0.9999)
    state = solve_single_steady(op1, eff)
    assert state.residual < 1e-10
    assert state.u.min() > 0.0
    assert state.u.max() < 1e-3


def test_narrow_coexistence_sliver_regression():
    # At harvest fraction 0.997 the slow-movement habitat keeps a sliver of
    # drift rates with a strictly positive pair; this point sits inside it.
    cfg = parse_config(
        overrides=dict(
            d1=0.002, d2=0.001, alpha1=0.001, alpha2=0.00073142, mu=0.997, n=256
        )
    )
    grid = cfg.grid()
    eff = cfg.effective(grid)
    op1 = transport_for(grid, cfg.params.d1, cfg.params.alpha1)
    op2 = transport_for(grid, cfg.params.d2, cfg.params.alpha2)
    pair = solve_coexistence(op1, op2, eff)
    assert pair is not None
    assert pair.residual < 1e-10
    assert pair.u.min() > 1e-3
    assert pair.v.min() > 1e-3


def test_converged_starts_take_no_newton_update():
    cfg, grid, eff, op1, _ = weak_setup()
    single = solve_single_steady(op1, eff)
    assert single.method == "hybrid" and single.residual < 1e-10
    again = solve_single_steady(op1, eff, method="newton", u0=single.u)
    assert again.iterations == 0
    np.testing.assert_array_equal(again.u, single.u)

    cfg, grid, eff, op = symmetric_setup()
    pair = solve_coexistence(op, op, eff)
    assert pair.iterations > 0
    again = solve_coexistence(op, op, eff, guess=(pair.u, pair.v))
    assert again.iterations == 0
    np.testing.assert_array_equal(again.u, pair.u)
    np.testing.assert_array_equal(again.v, pair.v)


def test_newton_iteration_cap_names_the_system(monkeypatch):
    cfg, grid, eff, op = symmetric_setup()
    monkeypatch.setattr(steady, "_MAX_PAIR_UPDATES", 1)
    monkeypatch.setattr(steady, "_MAX_SINGLE_UPDATES", 1)
    with pytest.raises(SolverError, match=r"^coexistence Newton hit the iteration cap at residual "):
        solve_coexistence(op, op, eff)
    start = np.full(grid.size, float(np.mean(eff.K1)))
    with pytest.raises(SolverError, match=r"^steady-state Newton hit the iteration cap at residual "):
        steady._newton_single(op, eff, start, 1e-10)


def test_unknown_steady_method_rejected():
    cfg, grid, eff, op1, _ = weak_setup(n=32)
    with pytest.raises(ConfigError):
        solve_single_steady(op1, eff, method="bisection")
