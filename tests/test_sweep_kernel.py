"""The sweep-point kernel against frozen copies of its earlier form.

A sweep point is one lone-state Newton solve and two eigen solves.  The
kernel was trimmed to fewer NumPy calls with every floating-point
operation kept in its order, so its results must be bitwise those of
the copies kept here: ``principal_eigenpair`` with the band product it
used, and ``solve_single_steady`` with its march, damped Newton loop and
positivity floor, as they were before the trim.  The copies are
compared field by field with ``==``, on random problems and on whole
sweeps.  The tests at the end check that no solve writes into its start
or hands out an array another caller holds.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercomp import experiments, spectral, steady
from rivercomp.config import parse_config
from rivercomp.errors import ConfigError, SolverError
from rivercomp.grid import make_grid
from rivercomp.linsolve import factor_shifted
from rivercomp.operators import transport_for
from rivercomp.spectral import EigenReport, invasion_potential, principal_eigenpair
from rivercomp.steady import SteadyState, solve_single_steady
from rivercomp.stepping import max_stable_dt

# ---------------------------------------------------------------------
# frozen copies
# ---------------------------------------------------------------------


def frozen_band_matvec(bands, x):
    lower, diag, upper = bands
    y = diag * x
    y[1:] = lower * x[:-1] + y[1:]
    y[:-1] += upper * x[1:]
    return y


def frozen_shifted_matvec(op, p):
    if op.grid.dim == 2:
        matrix = (op.matrix + sparse.diags(p)).tocsr()
        return matrix.__matmul__, np.abs(matrix).sum(axis=1)
    lower, diag, upper = op.bands
    bands = (lower, diag + p, upper)
    rows = np.abs(bands[1])
    rows[:-1] += np.abs(upper)
    rows[1:] = np.abs(lower) + rows[1:]
    return lambda x: frozen_band_matvec(bands, x), rows


def frozen_principal_eigenpair(op, potential, tol=1e-12, x0=None):
    p = np.asarray(potential, dtype=float)
    n = op.grid.size
    if p.shape != (n,):
        raise ConfigError(f"potential has shape {p.shape}, expected ({n},)")
    if x0 is None:
        x = np.ones(n)
    else:
        x = np.asarray(x0, dtype=float)
        if x.shape != (n,):
            raise ConfigError(f"start vector has shape {x.shape}, expected ({n},)")
        if not (np.all(np.isfinite(x)) and x.min() > 0.0):
            raise ConfigError("start vector must be finite and strictly positive")
    matvec, rows = frozen_shifted_matvec(op, p)
    scale = float(rows.max())
    if scale == 0.0:
        return EigenReport(
            growth_rate=0.0, phi=np.ones(n), iterations=0, residual=0.0, factorizations=0
        )
    res_target = max(tol, 64.0 * np.finfo(float).eps) * scale
    margin_floor = 1e-8 * scale

    q = matvec(x) / x
    lo, hi = q.min(), q.max()
    margin = max(hi - lo, margin_floor)
    shift = hi + margin
    solver = factor_shifted(op, shift=shift, scale=-1.0, potential=p)
    factorizations = 1

    iterations = 0
    while iterations < spectral._MAX_EIGEN_SOLVES:
        y = solver.solve(x)
        iterations += 1
        if y.min() <= 0.0:
            margin *= 10.0
            shift = hi + margin
            solver = factor_shifted(op, shift=shift, scale=-1.0, potential=p)
            factorizations += 1
            continue
        x = y / y.max()
        mx = matvec(x)
        q = mx / x
        lo, hi = q.min(), q.max()
        lam = float(x @ mx) / float(x @ x)
        residual = float(np.abs(mx - lam * x).max())
        if residual <= res_target:
            floor = 64.0 * np.finfo(float).eps * scale
            for _ in range(25):
                if residual <= floor:
                    break
                y = solver.solve(x)
                iterations += 1
                if y.min() <= 0.0:
                    break
                cand = y / y.max()
                mc = matvec(cand)
                lam_c = float(cand @ mc) / float(cand @ cand)
                res_c = float(np.abs(mc - lam_c * cand).max())
                if res_c < residual:
                    x, lam, residual = cand, lam_c, res_c
                if res_c >= 0.5 * residual:
                    break
            return EigenReport(
                growth_rate=lam,
                phi=x,
                iterations=iterations,
                residual=residual,
                factorizations=factorizations,
            )
        spread = max(hi - lo, margin_floor)
        if shift - hi > 8.0 * spread:
            margin = spread
            shift = hi + margin
            solver = factor_shifted(op, shift=shift, scale=-1.0, potential=p)
            factorizations += 1
    raise SolverError(
        f"eigen iteration did not reach residual {res_target:.3e} in {spectral._MAX_EIGEN_SOLVES} solves "
        f"(last residual {residual:.3e})"
    )


def frozen_positivity_floor(eff):
    return 1e-8 * float(np.max(eff.K1.values))


def frozen_damped_newton(residual, step, x, tol, max_iter, what):
    res = residual(x)
    res_norm = float(np.abs(res).max())
    for updates in range(max_iter):
        if res_norm < tol:
            return x, res_norm, updates
        delta = step(x, res)
        s = 1.0
        while s >= steady._MIN_DAMPING:
            trial = x + s * delta
            trial_res = residual(trial)
            trial_norm = float(np.abs(trial_res).max())
            if trial_norm <= (1.0 - steady._ARMIJO_SLOPE * s) * res_norm:
                x, res, res_norm = trial, trial_res, trial_norm
                break
            s *= 0.5
        else:
            raise SolverError(f"{what} Newton stalled at residual {res_norm:.3e} (target {tol:.3e})")
    raise SolverError(f"{what} Newton hit the iteration cap at residual {res_norm:.3e}")


def frozen_single_residual(op, eff, u):
    lu = frozen_band_matvec(op.bands, u) if op.grid.dim == 1 else op.matrix @ u
    return lu + eff.rr1.values * u * (1.0 - u / eff.K1.values)


def frozen_march(op, eff, u0, rate_tol):
    rate_tol *= float(np.max(eff.rr1.values * eff.K1.values))
    dt = max_stable_dt(eff.rr1.values)
    solve = factor_shifted(op, shift=1.0, scale=-dt)
    u = u0.copy()
    for k in range(1, steady._MAX_MARCH_STEPS + 1):
        u_next = solve.solve(u + dt * eff.rr1.values * u * (1.0 - u / eff.K1.values))
        np.maximum(u_next, 0.0, out=u_next)
        rate = float(np.abs(u_next - u).max()) / dt
        u = u_next
        if rate < rate_tol:
            return u, k
    raise SolverError(
        f"single-species march did not settle within {steady._MAX_MARCH_STEPS} steps "
        f"(rate {rate:.3e} vs target {rate_tol:.3e})"
    )


def frozen_newton_single(op, eff, u0, tol):
    rr1 = eff.rr1.values
    K1 = eff.K1.values

    def step(u, res):
        try:
            return factor_shifted(op, potential=rr1 * (1.0 - 2.0 * u / K1)).solve(-res)
        except SolverError as exc:
            raise SolverError(f"steady-state Newton system is singular: {exc}") from None

    u, _, updates = frozen_damped_newton(
        lambda u: frozen_single_residual(op, eff, u), step, u0.copy(), tol,
        steady._MAX_SINGLE_UPDATES, "steady-state",
    )
    return u, updates


def frozen_solve_single_steady(op, eff, tol=1e-10, method="hybrid", u0=None):
    K1 = eff.K1.values
    start = u0.copy() if u0 is not None else None
    iterations = 0
    if method == "newton":
        if start is None:
            start = np.full(op.grid.size, float(np.mean(K1)))
        u, iterations = frozen_newton_single(op, eff, start, tol)
    else:
        if start is None:
            start = np.full(op.grid.size, 0.5 * float(np.min(K1)))
        rate_tol = math.sqrt(tol) if method == "hybrid" else 1e-4 * math.sqrt(tol)
        u, steps = frozen_march(op, eff, start, rate_tol)
        iterations = steps
        if method == "hybrid":
            try:
                u, newton_its = frozen_newton_single(op, eff, u, tol)
                iterations += newton_its
            except SolverError:
                u, steps = frozen_march(op, eff, u, 1e-3 * math.sqrt(tol))
                iterations += steps
                method = "long-time"
    if float(np.min(u)) <= frozen_positivity_floor(eff):
        raise SolverError(
            "no strictly positive steady profile: the population washes out "
            "at these movement/harvest parameters"
        )
    residual = float(np.max(np.abs(frozen_single_residual(op, eff, u))))
    return SteadyState(grid=op.grid, u=u, residual=residual, method=method, iterations=iterations)


def frozen_secant(last, before):
    if last is None or before is None:
        return last
    guess = 2.0 * last - before
    return guess if np.all(np.isfinite(guess)) and guess.min() > 0.0 else last


def assert_same_report(got, want):
    assert got.growth_rate == want.growth_rate
    assert np.array_equal(got.phi, want.phi)
    assert (got.iterations, got.residual, got.factorizations) == (
        want.iterations, want.residual, want.factorizations
    )


def assert_same_state(got, want):
    assert np.array_equal(got.u, want.u)
    assert (got.residual, got.iterations, got.method) == (want.residual, want.iterations, want.method)


def outcome(solve, *args, **kwargs):
    """The solve's result, or the message of the SolverError it raised."""
    try:
        return solve(*args, **kwargs)
    except SolverError as exc:
        return str(exc)


# ---------------------------------------------------------------------
# eigen solves
# ---------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 300),
    log_d=st.floats(-2.0, 0.5),
    # Drift up to 40 diffusion lengths (within the Peclet guard) makes the
    # cold bracket wide, so the shift is re-anchored on the way.
    ratio=st.floats(0.0, 40.0),
    start=st.sampled_from(["cold", "near", "rough"]),
    tol=st.sampled_from([1e-12, 1e-8, 1e-4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_eigen_solve_is_the_frozen_solve_bitwise(n, log_d, ratio, start, tol, seed):
    rng = np.random.default_rng(seed)
    grid = make_grid(1, 0.0, 1.0, n)
    d = 10.0**log_d
    op = transport_for(grid, d, min(ratio, 1.9 / grid.h) * d)
    potential = rng.uniform(-1.0, 1.0, n)
    x0 = None
    if start == "near":
        # A warm start: the Perron vector, perturbed.
        phi = frozen_principal_eigenpair(op, potential).phi
        x0 = phi * np.exp(rng.uniform(-1e-3, 1e-3, n))
    elif start == "rough":
        x0 = np.exp(rng.uniform(-3.0, 3.0, n))
    got = outcome(principal_eigenpair, op, potential, tol=tol, x0=x0)
    want = outcome(frozen_principal_eigenpair, op, potential, tol=tol, x0=x0)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_report(got, want)


def test_eigen_oracle_draws_reach_every_branch():
    # A cold solve that re-anchors, the same under a loose tol, and a warm
    # start that needs one factorization: each agrees with the frozen solve.
    grid = make_grid(1, 0.0, 1.0, 200)
    op = transport_for(grid, 0.01, 0.35)
    potential = np.random.default_rng(3).uniform(-1.0, 1.0, grid.size)
    cold = principal_eigenpair(op, potential)
    assert cold.factorizations > 1
    assert_same_report(cold, frozen_principal_eigenpair(op, potential))
    loose = principal_eigenpair(op, potential, tol=1e-4)
    assert_same_report(loose, frozen_principal_eigenpair(op, potential, tol=1e-4))
    warm = principal_eigenpair(op, potential, x0=cold.phi)
    assert warm.factorizations == 1
    assert_same_report(warm, frozen_principal_eigenpair(op, potential, x0=cold.phi))


def test_2d_eigen_solve_is_the_frozen_solve_bitwise():
    cfg = parse_config(overrides=dict(dim=2, n=12, d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04, mu=0.1))
    grid, eff = cfg.grid(), cfg.effective(cfg.grid())
    op = transport_for(grid, 0.07, 0.04)
    potential = invasion_potential(np.full(grid.size, 0.5), eff)
    assert_same_report(principal_eigenpair(op, potential), frozen_principal_eigenpair(op, potential))


# ---------------------------------------------------------------------
# lone states
# ---------------------------------------------------------------------


def compare_lone_states(n, log_d, ratio, mu, method, start, tol, seed):
    d = 10.0**log_d
    alpha = min(ratio, 1.9 * n) * d  # grid Peclet number below 2 on the unit habitat
    cfg = parse_config(overrides=dict(n=n, d1=d, alpha1=alpha, d2=d, alpha2=alpha, mu=mu))
    grid, eff = cfg.grid(), cfg.effective(cfg.grid())
    op = transport_for(grid, d, alpha)
    rng = np.random.default_rng(seed)
    u0 = None
    if start != "cold":
        centre, spread = eff.K1.values, 0.5
        if start == "near":
            base = outcome(frozen_solve_single_steady, op, eff, tol=tol)
            if not isinstance(base, str):
                centre, spread = base.u, 1e-6
        u0 = centre * np.exp(rng.uniform(-spread, spread, n))
    got = outcome(solve_single_steady, op, eff, tol=tol, method=method, u0=u0)
    want = outcome(frozen_solve_single_steady, op, eff, tol=tol, method=method, u0=u0)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_state(got, want)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 300),
    log_d=st.floats(-3.0, 0.0),
    ratio=st.floats(0.0, 40.0),
    mu=st.floats(0.0, 0.9),
    method=st.sampled_from(["newton", "hybrid", "long-time"]),
    start=st.sampled_from(["cold", "near", "far"]),
    tol=st.sampled_from([1e-10, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lone_state_is_the_frozen_solve_bitwise(n, log_d, ratio, mu, method, start, tol, seed):
    # Some drift-dominated draws march without settling; both solves must
    # then fail alike, which a shorter cap shows in a fraction of the time.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(steady, "_MAX_MARCH_STEPS", 20_000)
        compare_lone_states(n, log_d, ratio, mu, method, start, tol, seed)


@pytest.mark.parametrize("method", ["newton", "hybrid"])
def test_lone_state_from_a_converged_start_is_the_frozen_solve(method):
    cfg = parse_config(overrides=dict(n=64, d1=0.002, d2=0.001, alpha1=0.001, alpha2=0.0006, mu=0.3))
    grid, eff = cfg.grid(), cfg.effective(cfg.grid())
    op = transport_for(grid, 0.002, 0.001)
    state = solve_single_steady(op, eff, method=method)
    again = solve_single_steady(op, eff, method="newton", u0=state.u)
    assert again.iterations == 0
    assert_same_state(again, frozen_solve_single_steady(op, eff, method="newton", u0=state.u))
    assert_same_state(state, frozen_solve_single_steady(op, eff, method=method))


# ---------------------------------------------------------------------
# whole sweeps
# ---------------------------------------------------------------------


def install_frozen_kernel(patch):
    patch.setattr(spectral, "principal_eigenpair", frozen_principal_eigenpair)
    patch.setattr(experiments, "solve_single_steady", frozen_solve_single_steady)
    patch.setattr(experiments, "_secant", frozen_secant)
    # The pair search shares the damped Newton loop and the floor.
    patch.setattr(steady, "_damped_newton", frozen_damped_newton)
    patch.setattr(steady, "positivity_floor", frozen_positivity_floor)


_SWEEP = dict(d1=0.002, d2=0.001, alpha1=0.001, mode="sweep")
_SWEEPS = {
    "K = 1 + x": dict(_SWEEP, mu=0.3, K="1 + x", n=256, points=33),
    "sliver": dict(_SWEEP, mu=0.997, n=64, points=120, tolerances={"marginal": 1e-9}),
}


@pytest.mark.parametrize("family", sorted(_SWEEPS))
def test_sweep_is_the_frozen_kernel_sweep_bitwise(monkeypatch, family):
    cfg = parse_config(overrides=_SWEEPS[family])
    result = experiments.sweep_alpha2(cfg)
    with monkeypatch.context() as patch:
        install_frozen_kernel(patch)
        frozen = experiments.sweep_alpha2(cfg)
    assert result == frozen
    # repr spells every float exactly, and tells 0.0 from -0.0.
    assert repr(result) == repr(frozen)
    if family == "sliver":
        assert result.window is not None and any(p.coexistence_found for p in result.points)


# ---------------------------------------------------------------------
# no solve writes into its start or shares what it returns
# ---------------------------------------------------------------------


def slow_problem(n=128):
    cfg = parse_config(overrides=dict(n=n, d1=0.002, d2=0.001, alpha1=0.001, alpha2=0.0006, mu=0.3))
    grid, eff = cfg.grid(), cfg.effective(cfg.grid())
    return grid, eff, transport_for(grid, 0.002, 0.001), transport_for(grid, 0.001, 0.0006)


def test_eigen_solves_leave_their_start_alone():
    grid, eff, op1, op2 = slow_problem()
    potential = invasion_potential(solve_single_steady(op1, eff).u, eff)
    x0 = np.exp(np.random.default_rng(5).uniform(-1.0, 1.0, grid.size))
    kept = x0.copy()
    first = principal_eigenpair(op2, potential, x0=x0)
    assert np.array_equal(x0, kept)
    second = principal_eigenpair(op2, potential, x0=x0)
    assert np.array_equal(x0, kept)
    assert_same_report(first, second)
    for a, b in ((first.phi, second.phi), (first.phi, x0), (second.phi, x0)):
        assert not np.shares_memory(a, b)
    # A start at the Perron vector converges at its first solve.
    third = principal_eigenpair(op2, potential, x0=first.phi)
    assert np.array_equal(first.phi, second.phi)
    assert not np.shares_memory(third.phi, first.phi)


def test_lone_states_share_no_memory_with_their_start():
    grid, eff, op1, _ = slow_problem()
    cold = solve_single_steady(op1, eff)
    for u0 in (cold.u, cold.u * 1.01):
        kept = u0.copy()
        state = solve_single_steady(op1, eff, method="newton", u0=u0)
        assert np.array_equal(u0, kept)
        assert not np.shares_memory(state.u, u0)
    # A converged start takes no update and still comes back as a copy.
    assert solve_single_steady(op1, eff, method="newton", u0=cold.u).iterations == 0


def test_sweep_keeps_each_solution_intact_as_the_secant_before():
    cfg = parse_config(overrides=dict(_SWEEP, mu=0.3, n=64, points=8))
    problem = experiments.Problem(cfg)
    warm: dict = {}
    kept: dict = {}
    for k, alpha2 in enumerate(np.linspace(0.00055, 0.00095, 6)):
        experiments._evaluate_point(problem, float(alpha2), warm)
        for key in ("v_hat", "kappa", "tau"):
            last, before = warm[key]
            if k > 0:
                # The array the last point left is now the secant's
                # ``before``: the same object, unchanged by this point.
                assert before is kept[key][0]
                assert np.array_equal(before, kept[key][1])
                assert not np.shares_memory(last, before)
            kept[key] = (last, last.copy())
