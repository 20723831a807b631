import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercomp.config import parse_config
from rivercomp.errors import ConfigError
from rivercomp.grid import Grid
from rivercomp.model import ModelParams, build_effective_params
from rivercomp.operators import transport_for
from rivercomp.spectral import (
    TOL_MARGINAL,
    _shifted_matvec,
    eigen_difference_residual,
    invasion_potential,
    principal_eigenpair,
    semitrivial_stability,
)
from rivercomp.steady import log_slope, log_slope_report, solve_single_steady

from oracles import dense_principal_eigenpair

WEAK = dict(d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04)


def weak_setup(n, mu=0.009):
    cfg = parse_config(overrides=dict(WEAK, mu=mu, n=n))
    grid = cfg.grid()
    eff = cfg.effective(grid)
    op1 = transport_for(grid, cfg.params.d1, cfg.params.alpha1)
    op2 = transport_for(grid, cfg.params.d2, cfg.params.alpha2)
    return cfg, grid, eff, op1, op2


def test_constant_potential_without_drift_gives_flat_mode():
    grid = Grid(1, 0.0, 1.0, 40)
    op = transport_for(grid, 0.3, 0.0)
    report = principal_eigenpair(op, np.full(grid.size, 0.37))
    # The operator annihilates constants, so the flat vector is an exact
    # eigenvector with the potential itself as eigenvalue.
    assert abs(report.growth_rate - 0.37) < 1e-12
    np.testing.assert_allclose(report.phi, 1.0, atol=1e-10)
    assert abs(report.stability_index + report.growth_rate) == 0.0


def test_eigenvector_is_strictly_positive():
    rng = np.random.default_rng(11)
    grid = Grid(1, 0.0, 1.0, 64)
    op = transport_for(grid, 0.08, 0.05)
    report = principal_eigenpair(op, rng.uniform(-1.0, 1.0, grid.size))
    assert report.phi.min() > 0.0
    assert report.phi.max() == 1.0
    assert report.residual < 1e-8


def test_iterative_matches_dense_on_random_draws():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = 32 if trial % 2 == 0 else 48
        grid = Grid(1, 0.0, 1.0, n)
        d = 10.0 ** rng.uniform(-2.0, 0.5)
        # Bound the drift-to-diffusion ratio so the eigenvector's dynamic
        # range stays far from the float floor; beyond that the dense
        # oracle itself loses the sign structure and certifies nothing.
        alpha = rng.uniform(0.0, 30.0) * d
        op = transport_for(grid, d, alpha)
        potential = rng.uniform(-1.0, 1.0, n)
        iterative = principal_eigenpair(op, potential)
        dense = dense_principal_eigenpair(op, potential)
        assert abs(iterative.growth_rate - dense.growth_rate) < 1e-8
        assert iterative.phi.min() > 0.0
        assert dense.phi.min() > 0.0
        np.testing.assert_allclose(iterative.phi, dense.phi, atol=1e-8)


def test_dense_solver_refuses_large_systems():
    grid = Grid(1, 0.0, 1.0, 160)
    op = transport_for(grid, 0.1, 0.0)
    with pytest.raises(ConfigError):
        dense_principal_eigenpair(op, np.zeros(grid.size))


def test_weak_harvest_invasion_indices_regression():
    cfg, grid, eff, op1, op2 = weak_setup(256)
    u_hat = solve_single_steady(op1, eff)
    v_hat = solve_single_steady(op2, eff)
    kappa = semitrivial_stability(op2, u_hat.u, eff)
    tau = semitrivial_stability(op1, v_hat.u, eff)
    # Frozen from a dense-solver run at the same resolution.
    assert kappa.report.stability_index == pytest.approx(-1.3085281791e-2, rel=1e-6)
    assert tau.report.stability_index == pytest.approx(1.1447217377e-2, rel=1e-6)
    assert kappa.verdict == "unstable"
    assert tau.verdict == "stable"


def test_equal_movement_resident_is_marginal():
    cfg = parse_config(
        overrides=dict(d1=0.05, d2=0.05, alpha1=0.02, alpha2=0.02, mu=0.1, n=64)
    )
    grid = cfg.grid()
    eff = cfg.effective(grid)
    op = transport_for(grid, 0.05, 0.02)
    resident = solve_single_steady(op, eff)
    verdict = semitrivial_stability(op, resident.u, eff)
    assert verdict.verdict == "marginal"
    assert abs(verdict.report.growth_rate) < TOL_MARGINAL


def test_index_gap_identity_residual_shrinks_at_second_order():
    residuals = {}
    for n in (128, 256):
        cfg, grid, eff, op1, op2 = weak_setup(n)
        resident = solve_single_steady(op1, eff)
        potential = invasion_potential(resident.u, eff)
        report = eigen_difference_residual(op1, op2, potential)
        assert report.growth_first < report.growth_second
        residuals[n] = report.residual
    assert residuals[128] < 5e-6
    ratio = residuals[128] / residuals[256]
    assert 3.0 < ratio < 5.0


def test_index_gap_identity_degenerates_to_zero_for_equal_movement():
    grid = Grid(1, 0.0, 1.0, 64)
    op = transport_for(grid, 0.05, 0.02)
    rng = np.random.default_rng(3)
    report = eigen_difference_residual(op, op, rng.uniform(-0.5, 0.5, grid.size))
    # Both sides of the identity are exact zeros for identical operators.
    assert report.residual == 0.0


def test_index_gap_identity_is_one_dimensional_only():
    grid = Grid(2, 0.0, 1.0, 8)
    op = transport_for(grid, 0.1, 0.0)
    with pytest.raises(ConfigError):
        eigen_difference_residual(op, op, np.zeros(grid.size))


def test_drift_band_holds_for_decreasing_potential():
    cfg, grid, eff, op1, op2 = weak_setup(128)
    resident = solve_single_steady(op1, eff)
    potential = invasion_potential(resident.u, eff)
    assert bool(np.all(np.diff(potential) < 0.0))
    # ``verify``'s drift band: d2·phi_x/phi stays at or below alpha2, up to
    # the slope report's band.
    report = principal_eigenpair(op2, potential)
    slope = log_slope_report(report.phi, op2)
    excess = float(np.max(op2.d * slope.slope - op2.alpha))
    assert slope.band == pytest.approx(10.0 / 128 ** 2)
    assert excess <= slope.band


def test_drift_band_needs_positive_input():
    grid = Grid(1, 0.0, 1.0, 32)
    phi = np.linspace(1.0, -0.1, grid.size)
    from rivercomp.errors import SolverError

    with pytest.raises(SolverError):
        log_slope_report(phi, transport_for(grid, 0.1, 0.05))
    with pytest.raises(SolverError):
        log_slope(phi, grid)


# ---------------------------------------------------------------------
# start vector
# ---------------------------------------------------------------------


def residual_target(op, potential, tol=1e-12):
    """The eigen iteration's stopping residual for L + diag(potential)."""
    return max(tol, 64.0 * np.finfo(float).eps) * float(_shifted_matvec(op, potential)[1].max())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 128),
    log_d=st.floats(-2.0, 0.5),
    # Drift up to 10 diffusion lengths keeps the eigenvalue's condition
    # number small enough that residual and eigenvalue error agree in size.
    ratio=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_any_positive_start_gives_the_cold_eigenvalue(n, log_d, ratio, seed):
    rng = np.random.default_rng(seed)
    grid = Grid(1, 0.0, 1.0, n)
    d = 10.0**log_d
    op = transport_for(grid, d, ratio * d)
    potential = rng.uniform(-1.0, 1.0, n)
    x0 = np.exp(rng.uniform(-3.0, 3.0, n))
    cold = principal_eigenpair(op, potential)
    warm = principal_eigenpair(op, potential, x0=x0)
    assert abs(warm.growth_rate - cold.growth_rate) <= residual_target(op, potential)
    assert warm.phi.min() > 0.0
    assert warm.phi.max() == 1.0


@settings(max_examples=80, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    n=st.integers(3, 40),
    log_d=st.floats(-3.0, 1.0),
    peclet=st.floats(-1.999, 1.999),
)
def test_every_row_of_the_operator_has_positive_weight(dim, n, log_d, peclet):
    # principal_eigenpair scales its tolerances by the largest row sum of
    # |L + diag(p)| and assumes it positive.  Under d > 0 and a grid
    # Peclet number below 2 every row of L holds a positive off-diagonal
    # entry, so each row sum stays positive whatever the potential: even
    # one that cancels L's diagonal exactly.
    grid = Grid(dim, 0.0, 1.0, n)
    d = 10.0**log_d
    op = transport_for(grid, d, peclet * d / grid.h)
    for potential in (np.zeros(grid.size), -op.matrix.diagonal()):
        assert _shifted_matvec(op, potential)[1].min() > 0.0


def test_unit_start_is_the_cold_path_bitwise():
    cfg, grid, eff, op1, op2 = weak_setup(128)
    potential = invasion_potential(solve_single_steady(op1, eff).u, eff)
    cold = principal_eigenpair(op2, potential)
    unit = principal_eigenpair(op2, potential, x0=np.ones(grid.size))
    assert unit.growth_rate == cold.growth_rate
    assert (unit.iterations, unit.factorizations) == (cold.iterations, cold.factorizations)
    assert np.array_equal(unit.phi, cold.phi)


def test_start_at_the_perron_vector_converges_at_once():
    cfg, grid, eff, op1, op2 = weak_setup(256)
    potential = invasion_potential(solve_single_steady(op1, eff).u, eff)
    cold = principal_eigenpair(op2, potential)
    assert cold.factorizations > 1
    warm = principal_eigenpair(op2, potential, x0=cold.phi)
    assert warm.iterations <= 2
    assert warm.factorizations == 1
    assert abs(warm.growth_rate - cold.growth_rate) <= residual_target(op2, potential)


@pytest.mark.parametrize(
    "bad",
    ["zero", "negative", "nan", "inf", "short", "column"],
)
def test_start_vector_must_be_finite_positive_and_one_per_cell(bad):
    grid = Grid(1, 0.0, 1.0, 32)
    op = transport_for(grid, 0.08, 0.05)
    x0 = np.ones(grid.size)
    if bad == "zero":
        x0[5] = 0.0
    elif bad == "negative":
        x0[-1] = -1e-3
    elif bad == "nan":
        x0[0] = np.nan
    elif bad == "inf":
        x0[7] = np.inf
    elif bad == "short":
        x0 = x0[:-1]
    else:
        x0 = x0[:, None]
    with pytest.raises(ConfigError, match="start vector"):
        principal_eigenpair(op, np.zeros(grid.size), x0=x0)
