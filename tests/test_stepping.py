"""Semi-implicit stepping: mass balance, positivity, order, classification."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rivercomp.errors import ConfigError
from rivercomp.grid import make_grid
from rivercomp.model import ModelParams, build_effective_params
from rivercomp.operators import transport_for
from rivercomp.stepping import (
    CLAMP_TOLERANCE,
    Outcome,
    Stepper,
    Trajectory,
    Verdict,
    classify_outcome,
    default_eps_extinct,
    integrate,
    max_stable_dt,
)

WEAK_HARVEST = dict(d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04)


def make_stepper(n=64, mu=0.009, dt=None, form="folded", dim=1, mu2=None, **kw):
    pars = dict(WEAK_HARVEST)
    pars.update(kw)
    p = ModelParams(mu1=mu, mu2=mu if mu2 is None else mu2, dim=dim, **pars)
    grid = make_grid(dim, p.a, p.b, n)
    eff = build_effective_params(p, grid, mu=min(p.mu1, p.mu2))
    op1 = transport_for(grid, p.d1, p.alpha1)
    op2 = transport_for(grid, p.d2, p.alpha2)
    return Stepper(op1, op2, p, eff, dt=dt, form=form), grid, eff


def test_zero_state_is_absorbing():
    stepper, grid, _ = make_stepper()
    z = np.zeros(grid.size)
    u, v = stepper.step(z, z)
    np.testing.assert_array_equal(u, 0.0)
    np.testing.assert_array_equal(v, 0.0)


def test_mass_identity_single_step():
    # transport columns sum to zero, so one step changes each species'
    # mass by exactly dt times its integrated growth (up to the solve)
    stepper, grid, eff = make_stepper(n=64, dt=0.1)
    u = np.full(grid.size, 0.5)
    v = np.full(grid.size, 0.5)
    ru = stepper.reaction_u(u, v)
    rv = stepper.reaction_v(u, v)
    un, vn = stepper.step(u, v)
    h = grid.cell_volume
    assert abs(h * (un - u).sum() - 0.1 * h * ru.sum()) < 1e-12
    assert abs(h * (vn - v).sum() - 0.1 * h * rv.sum()) < 1e-12


def test_mass_identity_along_trajectory():
    _assert_mass_identity_along_trajectory(*make_stepper(n=48, dt=0.05)[:2])


def test_mass_identity_along_trajectory_2d():
    # the modal solve conserves mass to rounding like the banded one
    _assert_mass_identity_along_trajectory(*make_stepper(n=12, dim=2, dt=0.05)[:2])


def _assert_mass_identity_along_trajectory(stepper, grid):
    h = grid.cell_volume
    u = np.full(grid.size, 0.4)
    v = 0.3 + 0.2 * np.linspace(0.0, 1.0, grid.size)
    for _ in range(50):
        ru, rv = stepper.reaction_u(u, v), stepper.reaction_v(u, v)
        un, vn = stepper.step(u, v)
        assert abs(h * (un - u).sum() - stepper.dt * h * ru.sum()) < 1e-11
        assert abs(h * (vn - v).sum() - stepper.dt * h * rv.sum()) < 1e-11
        u, v = un, vn
    assert stepper.clamp_events == 0


def test_spatially_homogeneous_reduction():
    # constant K and no drift: the PDE step must equal the scalar logistic
    # Euler update (transport vanishes on constants)
    stepper, grid, eff = make_stepper(alpha1=0.0, alpha2=0.0, K_expr="2.5", dt=0.1)
    u = np.full(grid.size, 0.8)
    v = np.zeros(grid.size)
    un, _ = stepper.step(u, v)
    rr1 = eff.rr1.values[0]
    K1 = eff.K1.values[0]
    expected = 0.8 + 0.1 * rr1 * 0.8 * (1.0 - 0.8 / K1)
    np.testing.assert_allclose(un, expected, rtol=1e-14)
    assert np.ptp(un) < 1e-14 * expected


@settings(max_examples=60, deadline=None)
@given(
    data=hnp.arrays(
        dtype=float,
        shape=(2, 24),
        elements=st.floats(0.0, 1.0),
    )
)
def test_positivity_random_states(data):
    # dt at the stability cap and combined density inside the positivity
    # envelope u+v <= K1*(1 + 1/(rr1*dt)): outputs stay nonnegative with
    # zero clamp events
    _assert_positive_step(data, n=24)


@settings(max_examples=60, deadline=None)
@given(
    data=hnp.arrays(
        dtype=float,
        shape=(2, 64),
        elements=st.floats(0.0, 1.0),
    )
)
def test_positivity_random_states_2d(data):
    # the same envelope on an 8x8 grid: the modal solve's rounding stays
    # inside the clamp tolerance
    _assert_positive_step(data, n=8, dim=2)


def _assert_positive_step(data, **kw):
    _, _, eff = make_stepper(**kw)
    stepper, grid, _ = make_stepper(dt=max_stable_dt(eff), **kw)
    u, v = data[0], data[1]
    un, vn = stepper.step(u, v)
    assert un.min() >= 0.0 and vn.min() >= 0.0
    assert stepper.clamp_events == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_returned_states_do_not_alias_reused_buffers(dim):
    stepper, grid, _ = make_stepper(n=12, dim=dim, dt=0.1)
    x = np.linspace(0.0, 1.0, grid.size)
    u, v = stepper.step(0.2 + x, 0.8 - 0.5 * x)
    kept = u.copy(), v.copy()
    stepper.step(u, v)
    np.testing.assert_array_equal(u, kept[0])
    np.testing.assert_array_equal(v, kept[1])


def test_2d_stepper_makes_no_sparse_lu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the 2-D stepper must not call splu")

    monkeypatch.setattr(spla, "splu", refuse)
    stepper, grid, _ = make_stepper(n=12, dim=2, form="raw")
    u, v = stepper.step(np.full(grid.size, 0.5), np.full(grid.size, 0.5))
    assert u.min() > 0.0 and v.min() > 0.0


def test_transform_equivalence_short_run():
    # folded vs raw growth law from identical data, trajectory-level
    sf, grid, eff = make_stepper(n=64, mu=0.3, dt=0.1, form="folded")
    sr, _, _ = make_stepper(n=64, mu=0.3, dt=0.1, form="raw")
    u0 = np.full(grid.size, 0.5)
    v0 = np.full(grid.size, 0.5)
    tf = integrate(sf, u0, v0, 10.0, n_samples=20, record_fields=True)
    tr = integrate(sr, u0, v0, 10.0, n_samples=20, record_fields=True)
    for (uf, vf), (ur, vr) in zip(tf.sampled_fields, tr.sampled_fields):
        assert np.max(np.abs(uf - ur)) < 1e-10
        assert np.max(np.abs(vf - vr)) < 1e-10


def test_competitive_order_preserved():
    # u_A >= u_B and v_A <= v_B pointwise at t=0 stays ordered at every
    # sample (the step is monotone in the competitive order)
    stepper_a, grid, _ = make_stepper(n=48, dt=0.1)
    stepper_b, _, _ = make_stepper(n=48, dt=0.1)
    x = np.linspace(0.0, 1.0, grid.size)
    ua, va = np.full(grid.size, 0.55), 0.25 + 0.05 * x
    ub, vb = 0.40 + 0.05 * x, np.full(grid.size, 0.45)
    ta = integrate(stepper_a, ua, va, 20.0, n_samples=40, record_fields=True)
    tb = integrate(stepper_b, ub, vb, 20.0, n_samples=40, record_fields=True)
    for (u1, v1), (u2, v2) in zip(ta.sampled_fields, tb.sampled_fields):
        assert np.all(u1 >= u2 - 1e-12)
        assert np.all(v1 <= v2 + 1e-12)


def test_integrate_zero_horizon_returns_initial_sample():
    stepper, grid, _ = make_stepper(n=16)
    u0 = np.full(grid.size, 0.2)
    v0 = np.full(grid.size, 0.7)
    traj = integrate(stepper, u0, v0, 0.0)
    assert list(traj.times) == [0.0]
    assert traj.norm_u_inf[0] == 0.2
    np.testing.assert_array_equal(traj.final_state[1], v0)


def test_integrate_validates_inputs():
    stepper, grid, _ = make_stepper(n=16)
    ok = np.zeros(grid.size)
    with pytest.raises(ConfigError):
        integrate(stepper, ok, ok, -1.0)
    with pytest.raises(ConfigError):
        integrate(stepper, np.zeros(3), ok, 1.0)
    with pytest.raises(ConfigError):
        integrate(stepper, ok - 1.0, ok, 1.0)


def test_snapshots_and_final_state():
    stepper, grid, _ = make_stepper(n=16, dt=0.1)
    u0 = np.full(grid.size, 0.5)
    traj = integrate(stepper, u0, u0, 1.0, snapshot_times=(0.0, 0.5))
    assert 0.0 in traj.snapshots
    assert any(abs(t - 0.5) < 0.1 + 1e-9 for t in traj.snapshots)
    u_end, v_end = traj.final_state
    assert u_end.shape == (grid.size,)


def test_wall_clock_budget_marks_truncated():
    stepper, grid, _ = make_stepper(n=256, dt=1e-3)
    u0 = np.full(grid.size, 0.5)
    traj = integrate(stepper, u0, u0, 1e6, wall_clock_budget=0.05)
    assert traj.truncated
    out = classify_outcome(traj, eps_extinct=1e-3)
    assert out.verdict is Verdict.UNDECIDED


def _reference_solver(grid, d, alpha, dt):
    """One species' implicit solve the way the two-solve stepper did it.

    1-D uses the banded solver (splu differs from any tridiagonal
    elimination at rounding level), 2-D a sparse LU of its own.
    """
    m = sparse.identity(grid.size, format="csr") - dt * transport_for(grid, d, alpha).matrix
    if grid.dim == 1:
        ab = np.array([np.insert(m.diagonal(1), 0, 0.0), m.diagonal(), np.append(m.diagonal(-1), 0.0)])
        return lambda b: scipy.linalg.solve_banded((1, 1), ab, b)
    return spla.splu(m.tocsc()).solve


def _two_scan_clamp(w, events):
    bad = w < -CLAMP_TOLERANCE
    events[0] += int(bad.sum())
    if (w < 0.0).any():
        w = np.maximum(w, 0.0)
    return w


@pytest.mark.parametrize(
    "kw,rtol",
    [
        (dict(n=64, mu=0.3), 0.0),
        (dict(n=64, mu=0.1, mu2=0.25, form="raw"), 0.0),
        (dict(n=12, mu=0.1, dim=2, form="raw"), 1e-12),
    ],
    ids=["1d-folded", "1d-raw-unequal-harvest", "2d-raw"],
)
def test_stacked_step_matches_two_solve_reference(kw, rtol):
    # Each species solved on its own with its own factorization and the
    # two-scan clamp: the stacked solve must give the same states and the
    # same clamp count.  The initial hump sits far outside the positivity
    # envelope, so the first steps clamp.  States must agree within
    # ``rtol`` of their sup-norm: bitwise in 1-D (rtol 0); the 2-D modal
    # solve agrees with splu to rounding only.
    stepper, _, eff = make_stepper(**kw)
    cap = max_stable_dt(eff) if stepper.form == "folded" else max_stable_dt(stepper.params, eff.r.values)
    stepper, grid, eff = make_stepper(dt=cap, **kw)
    dt, p = stepper.dt, stepper.params
    solve_u = _reference_solver(grid, p.d1, p.alpha1, dt)
    solve_v = _reference_solver(grid, p.d2, p.alpha2, dt)
    hump = 8.0 * float(np.max(eff.K1.values)) * np.exp(-40.0 * (np.arange(grid.size) / grid.size - 0.3) ** 2)
    u = ru = hump
    v = rv = np.full(grid.size, 0.5)
    events = [0]
    for _ in range(300):
        u, v = stepper.step(u, v)
        ru, rv = (
            _two_scan_clamp(solve_u(ru + dt * stepper.reaction_u(ru, rv)), events),
            _two_scan_clamp(solve_v(rv + dt * stepper.reaction_v(ru, rv)), events),
        )
        assert np.max(np.abs(u - ru)) <= rtol * np.max(np.abs(ru))
        assert np.max(np.abs(v - rv)) <= rtol * np.max(np.abs(rv))
    assert stepper.clamp_events == events[0] > 0


def test_clamp_zeroes_negatives_and_counts_only_those_below_tolerance():
    stepper, _, _ = make_stepper(n=16)
    w = np.array([0.5, -0.5 * CLAMP_TOLERANCE, -2.0 * CLAMP_TOLERANCE, 0.0, -1.0])
    out = stepper._clamp(w)
    np.testing.assert_array_equal(out, [0.5, 0.0, 0.0, 0.0, 0.0])
    assert stepper.clamp_events == 2
    stepper._clamp(np.array([0.0, -0.5 * CLAMP_TOLERANCE]))
    assert stepper.clamp_events == 2


def test_dt_cap_formula():
    _, grid, eff = make_stepper(n=16, mu=0.5)
    assert max_stable_dt(eff) == pytest.approx(0.9 / eff.rr1.values.max())
    p = ModelParams(mu1=0.2, mu2=0.5, **WEAK_HARVEST)
    r = np.ones(grid.size)
    assert max_stable_dt(p, r) == pytest.approx(0.9 / 0.8)


def test_mismatched_harvest_needs_raw_form():
    with pytest.raises(ConfigError):
        make_stepper(mu=0.1, mu2=0.2, form="folded")
    stepper, _, _ = make_stepper(mu=0.1, mu2=0.2, form="raw")
    assert stepper.form == "raw"


# ---------------------------------------------------------------------
# outcome classification
# ---------------------------------------------------------------------


def fake_traj(nu, nv, settled=True, truncated=False):
    k = 40
    tail_u = np.full(k, nu) if settled else np.linspace(2 * nu + 0.5, nu, k)
    tail_v = np.full(k, nv) if settled else np.linspace(2 * nv + 0.5, nv, k)
    g = make_grid(1, 0.0, 1.0, 4)
    return Trajectory(
        grid=g,
        dt=0.1,
        times=np.arange(k, dtype=float),
        norm_u_inf=tail_u,
        norm_v_inf=tail_v,
        mass_u=tail_u.copy(),
        mass_v=tail_v.copy(),
        truncated=truncated,
    )


@pytest.mark.parametrize(
    "nu,nv,settled,verdict",
    [
        (0.0, 1.8, True, Verdict.V_WINS),
        (1.8, 1e-6, True, Verdict.U_WINS),
        (0.9, 0.95, True, Verdict.COEXISTENCE),
        (1e-9, 1e-12, True, Verdict.BOTH_EXTINCT),
        (0.9, 0.95, False, Verdict.UNDECIDED),
    ],
)
def test_classify_outcome_table(nu, nv, settled, verdict):
    out = classify_outcome(fake_traj(nu, nv, settled=settled), eps_extinct=1e-3)
    assert out.verdict is verdict


def test_truncated_is_always_undecided():
    out = classify_outcome(fake_traj(0.0, 1.8, truncated=True), eps_extinct=1e-3)
    assert out.verdict is Verdict.UNDECIDED


def test_default_extinction_threshold():
    _, _, eff = make_stepper(n=16, mu=0.3)
    assert default_eps_extinct(eff) == pytest.approx(1e-3 * eff.K1.values.max())
