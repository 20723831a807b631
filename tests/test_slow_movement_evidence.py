"""Evidence for the slow-movement habitat at harvest fraction 0.3 (preset fig8).

Acceptance criteria 5 and 6 read this habitat as a slow exclusion of the
first species: the fig8 run at t=2000 is a transient that still holds
both species, species 1 is gone by t=10000, and the drift-rate sweep
through alpha2 finds no coexistence window.  Those readings rest on the
measurements here, all at the fig8 parameters (d1=0.002, d2=0.001,
alpha1=0.001, alpha2=6e-4, K=2+cos(pi x), mu=0.3):

- the invasion indices converge at second order under mesh refinement,
  with kappa < 0 (the first species' lone state is invaded by the
  second) and tau > 0 (the second species' lone state repels the first);
- the iterative eigensolver agrees with the dense eigen oracle;
- Newton and the long-time march give the same lone states;
- the fig8 run's |u| decays at the rate tau predicts.
"""

import math

import numpy as np
import pytest

from rivercomp.experiments import preset_config, simulate_run
from rivercomp.operators import transport_for
from rivercomp.spectral import (
    invasion_potential,
    principal_eigenpair,
    semitrivial_stability,
)
from rivercomp.steady import solve_single_steady

from oracles import dense_principal_eigenpair

# Mesh-converged indices at alpha2=6e-4 (n=512; n=1024 moves them by < 1e-8).
KAPPA_512 = -2.60884e-3
TAU_512 = 1.19933e-3


def _setup(n):
    cfg = preset_config("fig8", {"n": n})
    grid = cfg.grid()
    eff = cfg.effective(grid)
    p = cfg.params
    op1 = transport_for(grid, p.d1, p.alpha1)
    op2 = transport_for(grid, p.d2, p.alpha2)
    return eff, op1, op2


def _indices(n):
    eff, op1, op2 = _setup(n)
    u_hat = solve_single_steady(op1, eff).u
    v_hat = solve_single_steady(op2, eff).u
    kappa = semitrivial_stability(op2, u_hat, eff).report.stability_index
    tau = semitrivial_stability(op1, v_hat, eff).report.stability_index
    return kappa, tau


@pytest.fixture(scope="module")
def indices():
    return {n: _indices(n) for n in (32, 64, 128, 256, 512)}


def test_invasion_indices_converge_at_second_order(indices):
    # Ratio at n: (x(n/4) - x(n/2)) / (x(n/2) - x(n)); 4 for a second-order scheme.
    for n in (128, 256, 512):
        for which in (0, 1):
            coarse, mid, fine = (indices[m][which] for m in (n // 4, n // 2, n))
            ratio = (coarse - mid) / (mid - fine)
            assert abs(ratio - 4.0) <= 0.2, (n, which, ratio)
    kappa, tau = indices[512]
    assert kappa == pytest.approx(KAPPA_512, rel=1e-5)
    assert tau == pytest.approx(TAU_512, rel=1e-5)
    # Both signs hold by four decades over the marginal tolerance on every grid.
    tol_marginal = preset_config("fig8").tolerances.marginal
    for kappa, tau in indices.values():
        assert kappa < -1e4 * tol_marginal
        assert tau > 1e4 * tol_marginal


def test_iterative_eigen_matches_dense_oracle():
    eff, op1, op2 = _setup(128)
    for invader, resident_op in ((op2, op1), (op1, op2)):
        potential = invasion_potential(solve_single_steady(resident_op, eff).u, eff)
        iterative = principal_eigenpair(invader, potential)
        dense = dense_principal_eigenpair(invader, potential)
        assert abs(iterative.growth_rate - dense.growth_rate) <= 1e-12
        assert float(np.max(np.abs(iterative.phi - dense.phi))) <= 1e-10


def test_newton_lone_states_match_long_time_march():
    eff, op1, op2 = _setup(256)
    for op in (op1, op2):
        newton = solve_single_steady(op, eff, method="newton")
        marched = solve_single_steady(op, eff, method="long-time")
        assert float(np.max(np.abs(newton.u - marched.u))) <= 1e-9


def test_fig8_first_species_decays_at_rate_tau(indices):
    cfg = preset_config("fig8")
    traj, outcome = simulate_run(cfg)
    _, tau = indices[cfg.n]
    i1 = int(np.flatnonzero(traj.times == 1000.0)[0])
    i2 = int(np.flatnonzero(traj.times == 2000.0)[0])
    rate = math.log(traj.norm_u_inf[i1] / traj.norm_u_inf[i2]) / 1000.0
    assert abs(rate / tau - 1.0) <= 0.02
    # The horizon of criterion 5's long fig8 run: decaying at tau from
    # t=2000, |u| is a hundredfold below the extinction threshold by t=10000.
    assert outcome.final_norm_u * math.exp(-tau * 8000.0) < 1e-2 * cfg.tolerances.extinct
