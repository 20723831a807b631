"""Semi-implicit stepping: mass balance, positivity, order, classification."""

import math
from typing import NamedTuple

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rivercomp import experiments, stepping
from rivercomp.config import parse_config
from rivercomp.errors import ConfigError, SolverError
from rivercomp.grid import Grid
from rivercomp.model import EffectiveParams, ModelParams, build_effective_params, raw_reaction, reaction
from rivercomp.operators import transport_for
from rivercomp.stepping import (
    CLAMP_TOLERANCE,
    Outcome,
    Stepper,
    Trajectory,
    Verdict,
    classify_outcome,
    integrate,
    max_stable_dt,
)

WEAK_HARVEST = dict(d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04)


class Model(NamedTuple):
    """What a stepper is built from, as the oracles below read it: the
    parameters, the folded coefficients and the reaction form."""

    params: ModelParams
    eff: EffectiveParams
    form: str


def make_model(n=64, mu=0.009, form="folded", dim=1, mu2=None, **kw):
    """A ``Model`` on the weak-harvest family, updated by ``kw``, and its grid."""
    pars = dict(WEAK_HARVEST)
    pars.update(kw)
    p = ModelParams(mu1=mu, mu2=mu if mu2 is None else mu2, dim=dim, **pars)
    grid = Grid(dim, p.a, p.b, n)
    return Model(p, build_effective_params(p, grid, mu=min(p.mu1, p.mu2)), form), grid


def stepper_for(model, grid, dt=None):
    p = model.params
    ops = transport_for(grid, p.d1, p.alpha1), transport_for(grid, p.d2, p.alpha2)
    return Stepper(*ops, p, model.eff, dt=dt, form=model.form)


def make_stepper(n=64, mu=0.009, dt=None, form="folded", dim=1, mu2=None, **kw):
    model, grid = make_model(n, mu, form, dim, mu2, **kw)
    return stepper_for(model, grid, dt), grid, model.eff


def _reactions(model, u, v):
    """Both species' growth at (u, v) in ``model``'s reaction form, from
    the model's own evaluations: the oracles of the fused step."""
    eff, p = model.eff, model.params
    if model.form == "folded":
        return reaction(u, v, eff), reaction(v, u, eff)
    return raw_reaction(u, v, eff.r, eff.K, p.mu1), raw_reaction(v, u, eff.r, eff.K, p.mu2)


def _step_from(stepper, u, v):
    """One step of ``stepper`` from the fields (u, v); returns the new fields."""
    stepper.start(u, v)
    stepper.step()
    return stepper.fields()


def test_zero_state_is_absorbing():
    stepper, grid, _ = make_stepper()
    z = np.zeros(grid.size)
    u, v = _step_from(stepper, z, z)
    np.testing.assert_array_equal(u, 0.0)
    np.testing.assert_array_equal(v, 0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_start_refuses_non_finite_initial_data(bad):
    # One inf entry would turn the whole run into NaN with no clamp.
    stepper, grid, _ = make_stepper(n=16)
    w = np.full(grid.size, 0.5)
    spoiled = w.copy()
    spoiled[3] = bad
    for fields in ((spoiled, w), (w, spoiled)):
        with pytest.raises(ConfigError, match="initial data must be finite"):
            stepper.start(*fields)


@pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
def test_integrate_refuses_a_horizon_that_is_not_finite_and_nonnegative(t_end):
    # A NaN horizon would otherwise return a trajectory of zero steps.
    stepper, grid, _ = make_stepper(n=16)
    w = np.full(grid.size, 0.5)
    with pytest.raises(ConfigError, match="t_end must be finite and nonnegative"):
        integrate(stepper, w, w, t_end)


def test_integrate_raises_once_the_state_stops_being_finite():
    # The explicit half overflows at 1e300 and the solve turns -inf into
    # NaN, which the clamp's test (NaN < 0 is false) lets through.
    stepper, grid, _ = make_stepper(n=16)
    w = np.full(grid.size, 1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="stopped being finite by t="):
            integrate(stepper, w, w, 1.0)


def test_mass_identity_single_step():
    # transport columns sum to zero, so one step changes each species'
    # mass by exactly dt times its integrated growth (up to the solve)
    model, grid = make_model(n=64)
    stepper = stepper_for(model, grid, dt=0.1)
    u = np.full(grid.size, 0.5)
    v = np.full(grid.size, 0.5)
    ru, rv = _reactions(model, u, v)
    un, vn = _step_from(stepper, u, v)
    h = grid.cell_volume
    assert abs(h * (un - u).sum() - 0.1 * h * ru.sum()) < 1e-12
    assert abs(h * (vn - v).sum() - 0.1 * h * rv.sum()) < 1e-12


def test_mass_identity_along_trajectory():
    model, grid = make_model(n=48)
    _assert_mass_identity_along_trajectory(stepper_for(model, grid, dt=0.05), model, grid)


def test_mass_identity_along_trajectory_2d():
    # the 2-D symmetrized solve conserves mass to rounding like the banded one
    model, grid = make_model(n=12, dim=2)
    stepper = stepper_for(model, grid, dt=0.05)
    assert stepper.implicit_solve == "symmetrized"
    _assert_mass_identity_along_trajectory(stepper, model, grid)


def _assert_mass_identity_along_trajectory(stepper, model, grid):
    h = grid.cell_volume
    u = np.full(grid.size, 0.4)
    v = 0.3 + 0.2 * np.linspace(0.0, 1.0, grid.size)
    for _ in range(50):
        ru, rv = _reactions(model, u, v)
        un, vn = _step_from(stepper, u, v)
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
    un, _ = _step_from(stepper, u, v)
    rr1 = eff.rr1[0]
    K1 = eff.K1[0]
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
    stepper, grid, _ = make_stepper(dt=max_stable_dt(eff.rr1), **kw)
    u, v = data[0], data[1]
    un, vn = _step_from(stepper, u, v)
    assert un.min() >= 0.0 and vn.min() >= 0.0
    assert stepper.clamp_events == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_returned_states_do_not_alias_reused_buffers(dim):
    stepper, grid, _ = make_stepper(n=12, dim=dim, dt=0.1)
    x = np.linspace(0.0, 1.0, grid.size)
    u, v = _step_from(stepper, 0.2 + x, 0.8 - 0.5 * x)
    kept = u.copy(), v.copy()
    _step_from(stepper, u, v)
    stepper.step()
    np.testing.assert_array_equal(u, kept[0])
    np.testing.assert_array_equal(v, kept[1])


def test_2d_stepper_makes_no_sparse_lu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the 2-D stepper must not call splu")

    monkeypatch.setattr(spla, "splu", refuse)
    # Neither 2-D step solve reads an operator's sparse matrix, so none is built.
    drift_dominated = dict(d1=0.025, d2=0.025, alpha1=1.0, alpha2=1.0)
    for n, pars, solve in ((12, WEAK_HARVEST, "symmetrized"), (24, drift_dominated, "modal-banded")):
        p = ModelParams(mu1=0.009, mu2=0.009, dim=2, **pars)
        grid = Grid(2, p.a, p.b, n)
        eff = build_effective_params(p, grid, mu=0.009)
        ops = transport_for(grid, p.d1, p.alpha1), transport_for(grid, p.d2, p.alpha2)
        stepper = Stepper(*ops, p, eff, form="raw")
        assert stepper.implicit_solve == solve
        u, v = _step_from(stepper, *np.full((2, grid.size), 0.5))
        assert u.min() > 0.0 and v.min() > 0.0
        assert not any("matrix" in op.__dict__ for op in ops)


def _sample_times(dt, steps, every):
    """The step times ``integrate`` samples at: every ``every``-th of ``steps`` steps."""
    return tuple(k * dt for k in range(0, steps + 1, every))


def test_transform_equivalence_short_run():
    # folded vs raw growth law from identical data, trajectory-level
    sf, grid, eff = make_stepper(n=64, mu=0.3, dt=0.1, form="folded")
    sr, _, _ = make_stepper(n=64, mu=0.3, dt=0.1, form="raw")
    u0 = np.full(grid.size, 0.5)
    v0 = np.full(grid.size, 0.5)
    times = _sample_times(sf.dt, steps=100, every=5)
    tf = integrate(sf, u0, v0, 10.0, n_samples=20, snapshot_times=times)
    tr = integrate(sr, u0, v0, 10.0, n_samples=20, snapshot_times=times)
    assert sorted(tf.snapshots) == sorted(tr.snapshots) == list(tf.times)
    for t in tf.times:
        (uf, vf), (ur, vr) = tf.snapshots[t], tr.snapshots[t]
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
    times = _sample_times(stepper_a.dt, steps=200, every=5)
    ta = integrate(stepper_a, ua, va, 20.0, n_samples=40, snapshot_times=times)
    tb = integrate(stepper_b, ub, vb, 20.0, n_samples=40, snapshot_times=times)
    assert sorted(ta.snapshots) == sorted(tb.snapshots) == list(ta.times)
    for t in ta.times:
        (u1, v1), (u2, v2) = ta.snapshots[t], tb.snapshots[t]
        assert np.all(u1 >= u2 - 1e-12)
        assert np.all(v1 <= v2 + 1e-12)


def test_integrate_zero_horizon_returns_initial_sample():
    stepper, grid, _ = make_stepper(n=16)
    u0 = np.full(grid.size, 0.2)
    v0 = np.full(grid.size, 0.7)
    traj = integrate(stepper, u0, v0, 0.0)
    assert list(traj.times) == [0.0]
    assert traj.norm_u_inf[0] == 0.2
    np.testing.assert_array_equal(traj.snapshots[traj.times[-1]][1], v0)


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
    u_end, v_end = traj.snapshots[traj.times[-1]]
    assert u_end.shape == (grid.size,)


def _implicit_matrix(grid, d, alpha, dt):
    return sparse.identity(grid.size, format="csr") - dt * transport_for(grid, d, alpha).matrix


def _reference_solver(m, dim):
    """One species' implicit solve of ``m`` the way the two-solve stepper did it.

    1-D uses the banded solver (splu differs from any tridiagonal
    elimination at rounding level), 2-D a sparse LU of its own.
    """
    if dim == 1:
        ab = np.array([np.insert(m.diagonal(1), 0, 0.0), m.diagonal(), np.append(m.diagonal(-1), 0.0)])
        return lambda b: scipy.linalg.solve_banded((1, 1), ab, b)
    return spla.splu(m.tocsc()).solve


def _two_scan_clamp(w, events):
    bad = w < -CLAMP_TOLERANCE
    events[0] += int(bad.sum())
    if (w < 0.0).any():
        w = np.maximum(w, 0.0)
    return w


class _TwoSolveStepper:
    """The old path, as an oracle with the stepper's interface.

    ``model`` is what ``stepper`` was built from.  Each species'
    right-hand side comes from the model's reaction oracles
    (``_reactions``), is solved by its own ``_reference_solver`` and
    clamped by the two-scan clamp.
    """

    implicit_solve = "two-solve"

    def __init__(self, stepper, model):
        p, self.model = model.params, model
        self.grid, self.dt, self.clamp_events = stepper.grid, stepper.dt, 0
        self.matrices = [_implicit_matrix(self.grid, d, a, self.dt) for d, a in ((p.d1, p.alpha1), (p.d2, p.alpha2))]
        self.solves = [_reference_solver(m, self.grid.dim) for m in self.matrices]

    def unclamped(self, w):
        u, v = w
        ru, rv = _reactions(self.model, u, v)
        rhs = u + self.dt * ru, v + self.dt * rv
        return [solve(b) for solve, b in zip(self.solves, rhs)]

    def start(self, u0, v0):
        self.w = np.stack((u0, v0)).astype(float)

    def step(self):
        events = [0]
        self.w = np.stack([_two_scan_clamp(xs, events) for xs in self.unclamped(self.w)])
        self.clamp_events += events[0]

    def advance(self, steps):
        for _ in range(steps):
            self.step()

    def fields(self):
        return self.w[0].copy(), self.w[1].copy()


def _rhs_magnitude(model, dt, w):
    """Componentwise sum of the magnitudes of the explicit half's terms:
    w + dt·rate·w·(1 + mu_s + (u + v)/cap) for the stacked state w >= 0."""
    eff, total = model.eff, w[0] + w[1]
    if model.form == "folded":
        return w + dt * eff.rr1 * w * (1.0 + total / eff.K1)
    mu = np.array([[model.params.mu1], [model.params.mu2]])
    return w + dt * eff.r * w * (1.0 + mu + total / eff.K)


# The stepper forms its right-hand side in the solve's coordinates,
# z·(a - g) with z = w/s and g = (b·s_u)·z_u + (b·s_v)·z_v.  Taken back
# to field units (s·(...)), it rounds at most ten times along any term's
# path: b (two), b·s, z_u, (b·s_u)·z_u, the sum, a - g, z, the product
# and s·(...); the growth term's path (a: three, then the last four) is
# shorter.  The oracle's rounds at most seven times.  Each rounding is
# at most eps/2 of a quantity no larger than the sum of the terms'
# magnitudes, so the two differ by at most 17/2*eps times that sum;
# 9*eps leaves room.  The worst over 6,000 random states (1-D n=64 and
# 256, 2-D 8x8, both forms, s = 1 and symmetrizer spread 6.5) was
# 2.0*eps.
_RHS_ULPS = 9


def _one_step_bound(oracle, w):
    """Componentwise bound on |stacked step - oracle step| from the state w.

    The right-hand sides differ by at most _RHS_ULPS*eps*M (M from
    ``_rhs_magnitude``; the stepper's in field units, which already
    counts its division by s); A^-1 >= 0 carries that through the solve.
    On the same right-hand side the symmetrized solve in field units,
    s·pttrs(b/s), and the banded one differ by at most
    8*eps*A^-1(|A||x|) (see tests/test_linsolve.py), x being the
    oracle's unclamped solution.  The clamp only shrinks differences.
    """
    eps = np.finfo(float).eps
    magnitude = [abs(m) @ np.abs(x) for m, x in zip(oracle.matrices, oracle.unclamped(w))]
    carried = _RHS_ULPS * _rhs_magnitude(oracle.model, oracle.dt, w) + 8 * np.stack(magnitude)
    return eps * np.stack([solve(c) for solve, c in zip(oracle.solves, carried)])


@pytest.mark.parametrize(
    "kw,rtol",
    [
        (dict(n=64, mu=0.3), None),
        (dict(n=64, mu=0.1, mu2=0.25, form="raw"), None),
        (dict(n=12, mu=0.1, dim=2, form="raw"), 1e-12),
    ],
    ids=["1d-folded", "1d-raw-unequal-harvest", "2d-raw"],
)
def test_stacked_step_matches_two_solve_reference(kw, rtol):
    # Each species solved on its own with its own factorization and the
    # two-scan clamp: the stacked stepper must make the same clamp count.
    # The initial hump sits far outside the positivity envelope, so the
    # first steps clamp.  2-D: the stepper runs its own trajectory and
    # must stay within ``rtol`` of the oracle's sup-norm; the symmetrized
    # solve agrees with splu to rounding only.  1-D (rtol None): every
    # step starts from the oracle's state and must land within one step's
    # rounding bound (``_one_step_bound``); along its own trajectory the
    # difference grows with the steps (up to 4.4e2*eps of the sup-norm
    # over these 300 steps), which the fig1 run below bounds.
    model, grid = make_model(**kw)
    eff = model.eff
    stepper = stepper_for(model, grid, dt=max_stable_dt(eff.rr1))
    oracle = _TwoSolveStepper(stepper, model)
    hump = 8.0 * float(np.max(eff.K1)) * np.exp(-40.0 * (np.arange(grid.size) / grid.size - 0.3) ** 2)
    w = ref = np.stack((hump, np.full(grid.size, 0.5)))
    stepper.start(*w)
    oracle.start(*ref)
    for _ in range(300):
        if rtol is None:
            w, bound = np.stack(_step_from(stepper, *ref)), _one_step_bound(oracle, ref)
            ref = np.stack(_step_from(oracle, *ref))
            assert np.all(np.abs(w - ref) <= bound)
        else:
            stepper.step()
            oracle.step()
            w, ref = np.stack(stepper.fields()), np.stack(oracle.fields())
            assert np.all(np.max(np.abs(w - ref), axis=1) <= rtol * np.max(np.abs(ref), axis=1))
    assert stepper.clamp_events == oracle.clamp_events > 0


def test_fig1_run_matches_the_two_solve_oracle():
    # The 20,000-step fig1 run against the old path: same verdict and
    # clamp count, and norm and mass histories within the sum of the
    # per-step bounds.  Each step differs from the oracle's by at most
    # about 8*eps*cond(A) of the state's scale (``_one_step_bound``; the
    # explicit half's share is far smaller), and while the step map does
    # not amplify differences, as on the way to the stable v-lone state
    # here, those add up to at most steps*8*eps*cond(A) of the scale
    # (7.9e-8 here; measured 7e-12).
    cfg = experiments.preset_config("fig1")
    problem = experiments.Problem(cfg)
    stepper = Stepper(problem.op1, problem.op2, cfg.params, problem.eff, dt=cfg.dt, form=cfg.reaction_form)
    oracle = _TwoSolveStepper(stepper, Model(cfg.params, problem.eff, cfg.reaction_form))
    u0, v0 = cfg.initial_fields(problem.grid)
    runs = [integrate(s, u0, v0, cfg.t_end, n_samples=cfg.samples) for s in (stepper, oracle)]
    steps = round(cfg.t_end / cfg.dt)
    assert steps == 20_000 and stepper.implicit_solve == "symmetrized"
    verdicts = [classify_outcome(r, cfg.tolerances.extinct, cfg.tolerances.settle).verdict for r in runs]
    assert verdicts == [experiments.PRESETS["fig1"].expected] * 2
    assert runs[0].clamp_events == runs[1].clamp_events
    cond = max(abs(m).sum(axis=1).max() * np.max(solve(np.ones(m.shape[0])))
               for m, solve in zip(oracle.matrices, oracle.solves))
    tol = steps * 8 * np.finfo(float).eps * cond
    new, old = runs
    for group in (("norm_u_inf", "norm_v_inf"), ("mass_u", "mass_v")):
        scale = max(np.max(getattr(old, key)) for key in group)
        for key in group:
            assert np.max(np.abs(getattr(new, key) - getattr(old, key))) <= tol * scale


def _explicit_rhs(monkeypatch, stepper, w):
    """The right-hand side a step from the fields w hands the implicit
    solve, taken back to field units: s·(z·(a - g))."""
    handed = []
    monkeypatch.setattr(stepper._solve, "solve", lambda b: handed.append(b.copy()))
    _step_from(stepper, *w)
    monkeypatch.undo()
    return stepper._scale * handed[0].reshape(w.shape)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8)])
def test_fused_rhs_matches_the_oracle_reactions(monkeypatch, dim, n):
    # Folded form against model.reaction, raw form with mu1 != mu2 against
    # model.raw_reaction: u + dt*R(u, v) and v + dt*R(v, u), within
    # _RHS_ULPS*eps of the magnitudes of their terms.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(dim)
    folded_model, grid = make_model(n=n, dim=dim, mu=0.3)
    raw_model, _ = make_model(n=n, dim=dim, mu=0.1, mu2=0.25, form="raw")
    folded, raw = stepper_for(folded_model, grid), stepper_for(raw_model, grid)
    eff = folded_model.eff
    r, K = raw_model.eff.r, raw_model.eff.K
    for _ in range(5):
        w = 2.0 * rng.random((2, grid.size))
        u, v = w
        dt = folded.dt
        oracle = np.stack((u + dt * reaction(u, v, eff), v + dt * reaction(v, u, eff)))
        bound = _RHS_ULPS * eps * _rhs_magnitude(folded_model, dt, w)
        assert np.all(np.abs(_explicit_rhs(monkeypatch, folded, w) - oracle) <= bound)
        dt = raw.dt
        oracle = np.stack((u + dt * raw_reaction(u, v, r, K, 0.1), v + dt * raw_reaction(v, u, r, K, 0.25)))
        bound = _RHS_ULPS * eps * _rhs_magnitude(raw_model, dt, w)
        assert np.all(np.abs(_explicit_rhs(monkeypatch, raw, w) - oracle) <= bound)


@pytest.mark.parametrize("form", ["folded", "raw"])
@pytest.mark.parametrize("dim", [1, 2])
def test_stepper_run_calls_no_reaction_oracle(monkeypatch, form, dim):
    def refuse(*args, **kwargs):
        raise AssertionError("the step must evaluate its reactions in the fused pass")

    stepper, grid, _ = make_stepper(n=12, dim=dim, form=form)
    monkeypatch.setattr(stepping, "reaction", refuse)
    monkeypatch.setattr(stepping, "raw_reaction", refuse)
    u0 = np.full(grid.size, 0.5)
    traj = integrate(stepper, u0, u0, 20 * stepper.dt, n_samples=5)
    assert traj.times[-1] == pytest.approx(20 * stepper.dt)
    _step_from(stepper, u0, u0)


def test_clamp_zeroes_negatives_and_counts_only_those_below_tolerance(monkeypatch):
    # The solve writes a state whose fields are w.  Where s != 1 the
    # clamp judges the fields, not the solve's coordinates z = w/s: it
    # counts exactly the entries below -CLAMP_TOLERANCE in field units
    # and zeroes every negative one.
    stepper, grid, _ = make_stepper(n=16, alpha1=0.3)
    s = stepper._scale
    assert stepper.implicit_solve == "symmetrized" and s.max() > 1.5 and s.min() < 0.5
    w = np.full((2, grid.size), 0.5)
    w[s > 1.5] = -1.5 * CLAMP_TOLERANCE  # counted, though z > -CLAMP_TOLERANCE there
    w[s < 0.5] = -0.6 * CLAMP_TOLERANCE  # not counted, though z < -CLAMP_TOLERANCE there
    w[1, :4] = 0.0, -CLAMP_TOLERANCE, -2.0 * CLAMP_TOLERANCE, -1.0
    monkeypatch.setattr(stepper._solve, "solve", lambda b: np.copyto(b, (w / s).ravel()))
    stepper.start(*np.zeros_like(w))
    stepper.step()
    assert stepper.clamp_events == np.count_nonzero(w < -CLAMP_TOLERANCE) == np.count_nonzero(s > 1.5) + 2
    u, v = stepper.fields()
    np.testing.assert_array_equal(np.stack((u, v))[w <= 0.0], 0.0)
    np.testing.assert_allclose(np.stack((u, v))[w > 0.0], 0.5, rtol=1e-15)
    w = np.where(w < 0.0, -0.5 * CLAMP_TOLERANCE, 0.0)
    stepper.step()
    assert stepper.clamp_events == np.count_nonzero(s > 1.5) + 2
    np.testing.assert_array_equal(stepper.fields(), 0.0)


@pytest.mark.parametrize(
    "kw,solve",
    [
        (dict(n=32), "symmetrized"),
        (dict(n=32, d1=0.025, d2=0.025, alpha1=1.0, alpha2=1.0), "banded"),
        (dict(n=6, dim=2), "symmetrized"),
    ],
)
def test_sampling_leaves_the_run_alone(kw, solve):
    # Sampling and snapshots read the fields and never write the state:
    # the final state and the clamp count are bitwise the same however
    # often a run samples, with or without snapshots.  The hump sits far
    # outside the positivity envelope at dt = cap, so the run clamps.  One
    # stepper makes every run, and each trajectory counts its own clamps.
    _, _, eff = make_stepper(**kw)
    dt = max_stable_dt(eff.rr1)
    stepper, grid, eff = make_stepper(dt=dt, **kw)
    assert stepper.implicit_solve == solve
    x = np.arange(grid.size) / grid.size
    hump = 8.0 * float(np.max(eff.K1)) * np.exp(-40.0 * (x - 0.3) ** 2)
    finals, clamps = [], []
    for n_samples in (1, 100, 1000):
        for times in ((), (0.0, 10 * dt, 333.3 * dt, 999.5 * dt)):
            traj = integrate(stepper, hump, np.full(grid.size, 0.5), 1000 * dt, n_samples=n_samples,
                             snapshot_times=times)
            assert len(traj.times) == min(n_samples, 1000) + 1
            finals.append(np.stack(traj.snapshots[traj.times[-1]]))
            clamps.append(traj.clamp_events)
    assert clamps[0] > 0 and clamps.count(clamps[0]) == len(clamps)
    for final in finals[1:]:
        np.testing.assert_array_equal(final, finals[0])


_STRATEGIES = [
    (dict(n=32), "symmetrized"),
    (dict(n=32, d1=0.025, d2=0.025, alpha1=1.0, alpha2=1.0), "banded"),
    (dict(n=6, dim=2), "symmetrized"),
    (dict(n=24, dim=2, d1=0.025, d2=0.025, alpha1=1.0, alpha2=1.0), "modal-banded"),
]
_STRATEGY_IDS = ["symmetrized", "banded", "symmetrized-2d", "modal-banded"]


def _clamping_start(kw, solve, over_cap=1.0):
    """A stepper at dt = ``over_cap``·cap with ``solve`` as its implicit
    strategy, and a start whose hump sits far outside the positivity
    envelope, so the first step clamps."""
    _, _, eff = make_stepper(**kw)
    stepper, grid, eff = make_stepper(dt=over_cap * max_stable_dt(eff.rr1), **kw)
    assert stepper.implicit_solve == solve
    x = np.arange(grid.size) / grid.size
    hump = 8.0 * float(np.max(eff.K1)) * np.exp(-40.0 * (x - 0.3) ** 2)
    return stepper, (hump, np.full(grid.size, 0.5))


def _reference_step(stepper):
    """One step as a lone ``step()`` made it before ``advance``: the same
    passes, the solve over the state and the clamp, read from the
    stepper's attributes each time."""
    z, rows, g, diff = stepper._z, stepper._rows, stepper._sum, stepper._diff
    g_u, g_v = stepper._work_rows
    np.multiply(stepper._crowding, rows, out=stepper._work)
    np.add(g_u, g_v, out=g)
    np.subtract(stepper._growth, g, out=diff)
    np.multiply(rows, diff, out=rows)
    stepper._solve.solve(z)
    if np.minimum.reduce(z) < 0.0:
        stepper.clamp_events += int(np.count_nonzero(z < stepper._floor))
        np.maximum(z, 0.0, out=z)


def frozen_advance(stepper, steps):
    """``Stepper.advance`` as it was while its clamp check took the min
    reduction np.minimum.reduce(z); the loop now selects the smallest entry
    by index, z[z.argmin()], and must stay bitwise this copy."""
    z, rows, work, g, diff = stepper._z, stepper._rows, stepper._work, stepper._sum, stepper._diff
    g_u, g_v = stepper._work_rows
    crowding, growth, floor = stepper._crowding, stepper._growth, stepper._floor
    solve = stepper._solve.solve
    multiply, add, subtract, maximum = np.multiply, np.add, np.subtract, np.maximum
    smallest, count_nonzero = np.minimum.reduce, np.count_nonzero
    clamps = 0
    try:
        for _ in range(steps):
            multiply(crowding, rows, out=work)
            add(g_u, g_v, out=g)
            subtract(growth, g, out=diff)
            multiply(rows, diff, out=rows)
            solve(z)
            if smallest(z) < 0.0:
                clamps += int(count_nonzero(z < floor))
                maximum(z, 0.0, out=z)
    finally:
        stepper.clamp_events += clamps


@pytest.mark.parametrize("kw,solve", _STRATEGIES, ids=_STRATEGY_IDS)
def test_advance_is_bitwise_the_per_step_loop(kw, solve):
    # advance(k) against k lone steps, k steps of the reference body and
    # the frozen loop, chunk by chunk from a clamping start: the same
    # state bit for bit and the same clamp count after every chunk,
    # advance(0) included.  At four times the cap the drift-dominated
    # (banded, modal-banded) runs go on clamping now and then, several
    # times within one chunk.
    stepper, start = _clamping_start(kw, solve, over_cap=4.0)
    chunks = (1, 7, 0, 42, 150)
    runs = []
    for advance in (stepper.advance,
                    lambda k: [stepper.step() for _ in range(k)],
                    lambda k: [_reference_step(stepper) for _ in range(k)],
                    lambda k: frozen_advance(stepper, k)):
        stepper.start(*start)
        clamps_before, seen = stepper.clamp_events, []
        for k in chunks:
            advance(k)
            seen.append((stepper._z.copy(), stepper.clamp_events - clamps_before))
        runs.append(seen)
    assert runs[0][-1][1] > 0
    for other in runs[1:]:
        for (z, clamps), (z_ref, clamps_ref) in zip(runs[0], other):
            np.testing.assert_array_equal(z, z_ref)
            assert clamps == clamps_ref


@pytest.mark.parametrize("dim,n,clamps", [(1, 64, 66), (2, 16, 264)], ids=["1d", "2d"])
def test_advance_is_bitwise_the_frozen_min_reduction_loop(dim, n, clamps):
    # The compare-matrix run sim_clamp: the slow family at dt 1.28, far
    # above the cap, from u0 = v0 = 1.5, 16 steps.  It clamps 66 times in
    # 1-D and 264 times on 16x16 cells.  advance and the frozen loop reach
    # the same state bit for bit and the same clamp count after every
    # chunk, advance(0) included.
    cfg = parse_config(overrides=dict(
        d1=0.002, d2=0.001, alpha1=0.001, alpha2=0.0006, mu=0.3, dim=dim, n=n, t_end=20.0,
        dt=1.28, u0=1.5, v0=1.5,
    ))
    problem = experiments.Problem(cfg)
    start = cfg.initial_fields(problem.grid)
    runs = []
    for advance in (Stepper.advance, frozen_advance):
        stepper = Stepper(problem.op1, problem.op2, cfg.params, problem.eff, dt=cfg.dt, form=cfg.reaction_form)
        stepper.start(*start)
        seen = []
        for k in (1, 4, 0, 11):
            advance(stepper, k)
            seen.append((stepper._z.copy(), stepper.clamp_events))
        runs.append(seen)
    assert runs[0][-1][1] == clamps
    for (z, count), (z_ref, count_ref) in zip(*runs):
        assert z.tobytes() == z_ref.tobytes() and count == count_ref


def _reference_integrate(stepper, u0, v0, t_end, n_samples=100, snapshot_times=()):
    """``integrate`` as a per-step loop: after every step, sample when the
    step is due and snapshot while the next pending time is reached."""
    stepper.start(u0, v0)
    clamps_before, dt, vol = stepper.clamp_events, stepper.dt, stepper.grid.cell_volume
    total_steps = max(1, math.ceil(t_end / dt - 1e-12)) if t_end > 0.0 else 0
    sample_every = max(1, total_steps // max(1, n_samples))
    samples = []

    def sample(t, w):
        samples.append((t, *(float(np.max(np.abs(x))) for x in w), *(vol * float(x.sum()) for x in w)))

    pending = sorted(set(float(t) for t in snapshot_times))
    snapshots = {}
    w = (np.array(u0, dtype=float), np.array(v0, dtype=float))
    sample(0.0, w)
    if pending and pending[0] <= 0.0:
        snapshots[0.0] = w
        pending = [t for t in pending if t > 0.0]
    for k in range(1, total_steps + 1):
        _reference_step(stepper)
        t = k * dt
        due = k % sample_every == 0 or k == total_steps
        if due or (pending and t >= pending[0] - 1e-12):
            w = stepper.fields()
            if due:
                sample(t, w)
            while pending and t >= pending[0] - 1e-12:
                snapshots[t] = w
                pending.pop(0)
    final_t = total_steps * dt
    if final_t not in snapshots:
        snapshots[final_t] = w
    times, norm_u, norm_v, mass_u, mass_v = (np.array(column) for column in zip(*samples))
    return Trajectory(stepper.grid, dt, times, norm_u, norm_v, mass_u, mass_v, snapshots,
                      stepper.clamp_events - clamps_before, stepper.implicit_solve)


# (t_end, n_samples, snapshot_times) in steps of dt; dt = cap is not a round number.
_SCHEDULES = {
    "snapshot-between-samples": (100, 10, (0.0, 33.5)),
    "snapshot-at-zero": (100, 10, (0.0,)),
    "two-snapshots-in-one-interval": (100, 10, (41.0, 44.2, 100.0)),
    "t-end-off-the-step-grid": (99.4, 7, (50.0, 99.4)),
    "more-samples-than-steps": (12, 40, (3.0, 3.0, 11.999)),
    "zero-horizon": (0, 10, (0.0, 5.0)),
}


@pytest.mark.parametrize("schedule", list(_SCHEDULES))
@pytest.mark.parametrize("kw,solve", _STRATEGIES, ids=_STRATEGY_IDS)
def test_integrate_is_bitwise_the_per_step_loop(kw, solve, schedule):
    # integrate advances between its events; the per-step reference loop
    # checks after every step.  Times, norms, masses, the snapshot keys
    # in their order, the snapshot arrays and the clamp count agree bit
    # for bit.
    stepper, start = _clamping_start(kw, solve)
    steps, n_samples, times = _SCHEDULES[schedule]
    dt = stepper.dt
    args = (*start, steps * dt, n_samples, tuple(t * dt for t in times))
    new, old = integrate(stepper, *args), _reference_integrate(stepper, *args)
    for key in ("times", "norm_u_inf", "norm_v_inf", "mass_u", "mass_v"):
        np.testing.assert_array_equal(getattr(new, key), getattr(old, key))
    assert list(new.snapshots) == list(old.snapshots)
    for t, fields in old.snapshots.items():
        np.testing.assert_array_equal(np.stack(new.snapshots[t]), np.stack(fields))
    assert new.clamp_events == old.clamp_events
    assert new.clamp_events > 0 or steps == 0


def test_snapshot_step_is_the_first_step_a_scan_reaches():
    # k·dt >= t - 1e-12 for the first k, as a per-step scan tests it.  Near
    # a step time a rounded division misses by one (at 6.700000000001001
    # with dt 0.1 it gives 67, at 187.60000000000102 it gives 1877).
    def scan(t, dt):
        k = 1
        while k * dt < t - 1e-12:
            k += 1
        return k

    assert stepping._first_step_reaching(6.700000000001001, 0.1) == scan(6.700000000001001, 0.1) == 68
    assert stepping._first_step_reaching(187.60000000000102, 0.1) == scan(187.60000000000102, 0.1) == 1876
    rng = np.random.default_rng(7)
    for dt in (0.1, 0.02278327670812928, 0.9 / 41.0, 0.6760861354307653):
        for k in rng.integers(1, 2000, size=40):
            t = k * dt
            for near in (t, np.nextafter(t, 0.0), t + 1e-12, np.nextafter(t + 1e-12, 0.0), t - 1e-12, 1e-13):
                assert stepping._first_step_reaching(float(near), dt) == scan(float(near), dt)


def test_dt_cap_formula():
    _, grid, eff = make_stepper(n=16, mu=0.5)
    assert max_stable_dt(eff.rr1) == pytest.approx(0.9 / eff.rr1.max())
    p = ModelParams(mu1=0.2, mu2=0.5, **WEAK_HARVEST)
    r = np.ones(grid.size)
    assert max_stable_dt(r * np.array([[1.0 - p.mu1], [1.0 - p.mu2]])) == pytest.approx(0.9 / 0.8)


# Positive on [0, 1]; the scale below stretches the rates across the 0.1 default.
_R_EXPRESSIONS = ("1", "1 + x", "2 + sin(3*x)", "0.5 + x*x", "1.5 - cos(2*x)*x")


def _two_form_cap(eff, params, form):
    """The dt cap as two call forms gave it: 0.9/max(r·r1) folded, and
    0.9/(max(r)·(1 - min(mu1, mu2))) raw."""
    if form == "folded":
        rate = float(np.max(eff.rr1))
    else:
        rate = float(np.max(eff.r)) * (1.0 - min(params.mu1, params.mu2))
    return 0.9 / rate


@settings(max_examples=150, deadline=None)
@given(
    expr=st.sampled_from(_R_EXPRESSIONS),
    scale=st.floats(0.01, 100.0),
    mu1=st.floats(0.0, 0.99, exclude_max=True),
    mu2=st.floats(0.0, 0.99, exclude_max=True),
    n=st.integers(3, 300),
    form=st.sampled_from(("folded", "raw")),
)
def test_dt_cap_is_bitwise_the_two_form_formula(expr, scale, mu1, mu2, n, form):
    # The cap from the net growth rates equals the two-form cap bit for
    # bit wherever it is taken: the config's cap and default, the
    # stepper's default, and the march's cap.  The config's form follows
    # mu1 == mu2; the stepper is built in the drawn form.
    if form == "folded":
        mu2 = mu1
    keys = dict(r=f"{scale!r}*({expr})", mu1=mu1, mu2=mu2, n=n)
    cfg = parse_config(overrides=keys)
    assert cfg.reaction_form == ("folded" if mu1 == mu2 else "raw")
    grid = cfg.grid()
    eff = cfg.effective(grid)
    cap = _two_form_cap(eff, cfg.params, form)
    assert max_stable_dt(eff.rr1) == cap
    assert cfg.dt == min(cap, 0.1)
    op = transport_for(grid, 1.0, 0.0)
    assert Stepper(op, op, cfg.params, eff, form=form).dt == min(cap, 0.1)
    assert parse_config(overrides=dict(keys, dt=cap)).dt == cap
    with pytest.raises(ConfigError, match="dt must lie in"):
        parse_config(overrides=dict(keys, dt=float(np.nextafter(cap, np.inf))))


def test_mismatched_harvest_needs_raw_form():
    # The folded form is refused at mu1 != mu2; the raw form's step is the
    # two-solve oracle's step from model.raw_reaction with each species'
    # own fraction, to within one step's rounding bound.
    with pytest.raises(ConfigError):
        make_stepper(mu=0.1, mu2=0.2, form="folded")
    model, grid = make_model(mu=0.1, mu2=0.2, form="raw")
    stepper = stepper_for(model, grid)
    oracle = _TwoSolveStepper(stepper, model)
    x = np.linspace(0.0, 1.0, grid.size)
    w = np.stack((0.4 + 0.3 * x, 0.9 - 0.5 * x))
    got, want = np.stack(_step_from(stepper, *w)), np.stack(_step_from(oracle, *w))
    assert np.all(np.abs(got - want) <= _one_step_bound(oracle, w))


# ---------------------------------------------------------------------
# outcome classification
# ---------------------------------------------------------------------


def fake_traj(nu, nv, settled=True):
    k = 40
    tail_u = np.full(k, nu) if settled else np.linspace(2 * nu + 0.5, nu, k)
    tail_v = np.full(k, nv) if settled else np.linspace(2 * nv + 0.5, nv, k)
    g = Grid(1, 0.0, 1.0, 4)
    return Trajectory(
        grid=g,
        dt=0.1,
        times=np.arange(k, dtype=float),
        norm_u_inf=tail_u,
        norm_v_inf=tail_v,
        mass_u=tail_u.copy(),
        mass_v=tail_v.copy(),
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


def test_default_extinction_threshold():
    cfg = parse_config(overrides=dict(n=16, mu=0.3))
    eff = cfg.effective(cfg.grid())
    assert cfg.tolerances.extinct == pytest.approx(1e-3 * eff.K1.max())
