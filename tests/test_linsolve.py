from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rivercomp import experiments
from rivercomp.errors import SolverError
from rivercomp.grid import Grid
from rivercomp.linsolve import (
    MAX_SYMMETRIZER_SPREAD,
    Factorization,
    StepSolve,
    factor_shifted,
    _symmetrizer,
    implicit_solver,
    sparse_lu,
)
from rivercomp.operators import transport_for


def test_tridiagonal_solve_matches_dense():
    rng = np.random.default_rng(7)
    n = 40
    main = 4.0 + rng.random(n)
    off = rng.random(n - 1)
    m = sparse.diags([off, main, off * 0.5], offsets=[-1, 0, 1], format="csr")
    b = rng.standard_normal(n)
    x = Factorization(main, off, off * 0.5).solve(b)
    np.testing.assert_allclose(m @ x, b, atol=1e-12)


def test_factorization_reusable():
    m = sparse.diags([[1.0, 1.0], [3.0, 3.0, 3.0], [1.0, 1.0]], offsets=[-1, 0, 1], format="csr")
    f = Factorization(np.full(3, 3.0), np.ones(2), np.ones(2))
    for seed in range(3):
        b = np.random.default_rng(seed).random(3)
        np.testing.assert_allclose(m @ f.solve(b), b, atol=1e-13)


def test_wider_bandwidth_takes_sparse_path():
    # A 2-D operator is not tridiagonal: its shifted systems go to sparse
    # LU, and so does any matrix handed to sparse_lu, same answers.
    rng = np.random.default_rng(11)
    n = 30
    m = sparse.diags(
        [rng.random(n - 2), rng.random(n - 1), 5.0 + rng.random(n), rng.random(n - 1), rng.random(n - 2)],
        offsets=[-2, -1, 0, 1, 2],
        format="csr",
    )
    b = rng.standard_normal(n)
    np.testing.assert_allclose(m @ sparse_lu(m).solve(b), b, atol=1e-11)

    op = transport_for(Grid(2, 0.0, 1.0, 6), 0.3, 0.5)
    p = rng.standard_normal(op.grid.size)
    solver = factor_shifted(op, shift=2.0, scale=-0.5, potential=p)
    assert isinstance(solver, spla.SuperLU)
    m = 2.0 * sparse.identity(op.grid.size) - 0.5 * (op.matrix + sparse.diags(p))
    b = rng.standard_normal(op.grid.size)
    np.testing.assert_allclose(m @ solver.solve(b), b, atol=1e-12)


# ---------------------------------------------------------------------
# singular matrices and the tridiagonal path's oracles
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "bands",
    [
        ([1.0, 0.0, 1.0], [0.0, 0.0], [0.0, 0.0]),
    ],
    ids=["diag(1,0,1)"],
)
def test_singular_matrix_raises_solver_error(bands):
    with pytest.raises(SolverError, match="singular"):
        Factorization(*(np.array(band) for band in bands))


def _tridiagonal(dl, d, du):
    return sparse.diags([dl, d, du], [-1, 0, 1], shape=(len(d), len(d)), format="csr")


def _random_signs(rng, size):
    return rng.choice([-1.0, 1.0], size)


def _assert_matches_splu(m, b, x):
    """x solves m x = b backward-stably and agrees with splu to rounding.

    Both solvers are backward stable, so their solutions differ by at most
    a small multiple of eps times the condition number.
    """
    eps = np.finfo(float).eps
    x_inf = np.max(np.abs(x))
    residual = np.max(np.abs(m @ x - b))
    assert residual <= 64 * eps * (abs(m).sum(axis=1).max() * x_inf + np.max(np.abs(b)))
    reference = spla.splu(m.tocsc()).solve(b)
    cond = np.linalg.cond(m.toarray())
    assert np.max(np.abs(x - reference)) <= 1e3 * eps * cond * x_inf


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 300), seed=st.integers(0, 2**32 - 1))
@example(n=3, seed=0)
def test_tridiagonal_path_with_row_pivoting_matches_splu(n, seed):
    # |dl| exceeds |d| on about 40% of the rows, so gttrf interchanges rows;
    # the magnitudes keep n=300 draws well conditioned (cond below 5e4 in
    # 100 sampled draws), so the splu comparison stays sharp.
    rng = np.random.default_rng(seed)
    d = _random_signs(rng, n) * rng.uniform(1.0, 2.0, n)
    dl = _random_signs(rng, n - 1) * rng.uniform(0.0, 2.5, n - 1)
    du = _random_signs(rng, n - 1) * rng.uniform(0.0, 0.5, n - 1)
    m = _tridiagonal(dl, d, du)
    b = rng.standard_normal(n)
    _assert_matches_splu(m, b, Factorization(d, dl, du).solve(b))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 300),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(1e-3, 1e3),
)
@example(n=3, seed=0, dt=1.0)
def test_tridiagonal_path_on_stepper_m_matrices(n, seed, dt):
    # I - dt L with L's off-diagonals nonnegative and its columns summing
    # to zero: the column-dominant M-matrices the stepper factors.
    rng = np.random.default_rng(seed)
    below = rng.uniform(0.0, 1.0, n - 1)
    above = rng.uniform(0.0, 1.0, n - 1)
    d = 1.0 + dt * (np.append(below, 0.0) + np.insert(above, 0, 0.0))
    m = _tridiagonal(-dt * below, d, -dt * above)
    b = rng.uniform(0.0, 1.0, n)
    x = Factorization(d, -dt * below, -dt * above).solve(b)
    _assert_matches_splu(m, b, x)
    # The tridiagonal path performs gtsv's operations: bitwise equal to
    # the banded solver it replaces.
    ab = np.zeros((3, n))
    ab[0, 1:], ab[1], ab[2, :-1] = -dt * above, d, -dt * below
    np.testing.assert_array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))


# ---------------------------------------------------------------------
# the 2-D step solves against splu on the same stacked matrix
# ---------------------------------------------------------------------

# The banded kind: "banded" in 1-D, "modal-banded" in 2-D.
_banded = partial(StepSolve, symmetrizers=None)


def _solve_in_field_units(solver, b):
    """scale·z for the z that ``solver.solve`` writes over c = b/scale."""
    c = b / solver.scale
    solver.solve(c)
    return solver.scale * c


def _symmetrized(ops, dt):
    """The symmetrized solve, whatever the species' spreads."""
    return StepSolve(ops, dt, [_symmetrizer(op.bands) for op in ops])


_species = st.tuples(
    st.floats(1e-3, 1.0),  # d
    st.floats(-1.99, 1.99),  # grid Peclet number h*alpha/d, both signs
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    species=st.tuples(_species, _species),
    dt=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, species=((1e-3, 1.99), (1.0, -1.99)), dt=10.0, seed=0)
@example(n=40, species=((1e-3, -1.99), (1.0, 1.99)), dt=10.0, seed=0)
def test_separable_solve_matches_splu(n, species, dt, seed):
    _assert_stacked_solve_matches_splu(_banded, n, species, dt, seed)


def _stacked_solve_errors(solver, n, species, dt, seed):
    """The 2-D step solve's residual and its distance from splu, each over its bound.

    The system is I - dt*blockdiag(L1, L2) for two species with different
    d and alpha.  It is an M-matrix, so its inverse is nonnegative and one
    solve on a vector of ones gives ||A^-1||_inf exactly: the
    infinity-norm condition number costs no dense factorization.  The
    DCTs sum n terms per entry, so the residual bound grows with n.  The
    solve runs in field units, scale·solve(b/scale) (scale is 1.0 for the
    modal-banded solve).
    """
    grid = Grid(2, 0.0, 1.0, n)
    ops = tuple(transport_for(grid, d, peclet * d / grid.h) for d, peclet in species)
    eye = sparse.identity(grid.size, format="csr")
    m = sparse.block_diag([eye - dt * op.matrix for op in ops], format="csc")
    b = np.random.default_rng(seed).standard_normal(2 * grid.size)
    x = _solve_in_field_units(solver(ops, dt), b)

    eps = np.finfo(float).eps
    x_inf = np.max(np.abs(x))
    m_inf = abs(m).sum(axis=1).max()
    residual = np.max(np.abs(m @ x - b)) / (8 * n * eps * (m_inf * x_inf + np.max(np.abs(b))))
    lu = spla.splu(m)
    cond = m_inf * np.max(lu.solve(np.ones(2 * grid.size)))
    distance = np.max(np.abs(x - lu.solve(b))) / (1e3 * eps * cond * x_inf)
    return residual, distance


def _assert_stacked_solve_matches_splu(solver, n, species, dt, seed):
    residual, distance = _stacked_solve_errors(solver, n, species, dt, seed)
    assert residual <= 1.0
    assert distance <= 1.0


def _spread(n, peclet):
    """max(s)/min(s) of Lx's symmetrizer: each of the n - 1 off-diagonal
    pairs contributes √(lower/upper) = √((1 + Pe/2)/(1 - Pe/2))."""
    return ((1.0 + 0.5 * abs(peclet)) / (1.0 - 0.5 * abs(peclet))) ** (0.5 * (n - 1))


def _peclet(n, spread):
    """The grid Peclet number whose symmetrizer spread on n cells is ``spread``."""
    ratio = spread ** (2.0 / (n - 1))
    return 2.0 * (ratio - 1.0) / (ratio + 1.0)


_symmetric_species = st.tuples(
    st.floats(1e-3, 1.0),  # d
    st.floats(0.0, 1.0),  # log of the spread over log MAX_SYMMETRIZER_SPREAD
    st.sampled_from([-1.0, 1.0]),  # drift direction
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    species=st.tuples(_symmetric_species, _symmetric_species),
    dt=st.floats(1e-3, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, species=((1e-3, 1.0, 1.0), (1.0, 1.0, -1.0)), dt=10.0, seed=0)
@example(n=40, species=((1e-3, 1.0, -1.0), (1.0, 1.0, 1.0)), dt=10.0, seed=0)
def test_symmetrized_2d_solve_matches_splu(n, species, dt, seed):
    # The bounds of the modal-banded test, over every spread the selection
    # lets through, up to MAX_SYMMETRIZER_SPREAD itself.
    pairs = [
        (d, sign * _peclet(n, MAX_SYMMETRIZER_SPREAD**fraction)) for d, fraction, sign in species
    ]
    _assert_stacked_solve_matches_splu(_symmetrized, n, pairs, dt, seed)


@pytest.mark.parametrize("dt", [1e-3, 0.1, 10.0])
@pytest.mark.parametrize(
    "species",
    [
        ((1.0, 1.0 / 64), (1.0, 1.0 / 64)),
        ((1e-3, -_peclet(64, 0.99 * MAX_SYMMETRIZER_SPREAD)), (0.05, 0.0)),
    ],
    ids=["fig17", "spread9.9"],
)
def test_symmetrized_2d_solve_matches_splu_on_the_presets_grid(species, dt):
    # n=64, the planar presets' grid, beyond the random draws' n <= 40:
    # fig17's movement (d = alpha = 1 for both species, at its dt of 0.1
    # among others), and one species just inside the spread limit.
    _assert_stacked_solve_matches_splu(_symmetrized, 64, species, dt, seed=64)


# Inputs with a spread inside (MAX_SYMMETRIZER_SPREAD, 1000] on which the
# 2-D symmetrized solve, fast diagonalization (Lynch, Rice & Thomas 1964)
# whose rounding error grows with the spread, breaks the residual bound
# 2.3 and 1.1 times over (found by a seeded search).  The modal-banded
# solve, which ``implicit_solver`` picks there, stays below 0.04 of it.
_WIDE_SPREADS = pytest.mark.parametrize(
    "n, spread, d, dt, seed",
    [(8, 800.0, 0.1, 3e-3, 1), (6, 900.0, 0.01, 1e-3, 37)],
    ids=["n8-spread800", "n6-spread900"],
)


@_WIDE_SPREADS
def test_implicit_solver_meets_the_bound_where_the_diagonal_solve_breaks_it(
    n, spread, d, dt, seed
):
    species = ((d, _peclet(n, spread)), (0.05, 0.0))
    _assert_stacked_solve_matches_splu(implicit_solver, n, species, dt, seed)


def test_symmetrized_2d_solve_breaks_the_bound_beyond_the_spread_limit():
    # Why MAX_SYMMETRIZER_SPREAD exists: forced onto the n8-spread800
    # input, the symmetrized solve's residual exceeds the bound (2.3 times
    # over), so no limit near 800 would keep the 2-D stepper within it.
    n, spread, d, dt, seed = 8, 800.0, 0.1, 3e-3, 1
    assert spread > MAX_SYMMETRIZER_SPREAD
    species = ((d, _peclet(n, spread)), (0.05, 0.0))
    residual, _ = _stacked_solve_errors(_symmetrized, n, species, dt, seed)
    assert residual > 1.0


# ---------------------------------------------------------------------
# which 2-D solve the stepper gets
# ---------------------------------------------------------------------


def _solver_for(n, *species):
    grid = Grid(2, 0.0, 1.0, n)
    ops = tuple(transport_for(grid, d, peclet * d / grid.h) for d, peclet in species)
    return implicit_solver(ops, 0.1)


@pytest.mark.parametrize("figure", ["fig15", "fig16", "fig17"])
def test_planar_presets_get_the_symmetrized_solve(figure):
    cfg = experiments.preset_config(figure)
    grid, p = cfg.grid(), cfg.params
    ops = (transport_for(grid, p.d1, p.alpha1), transport_for(grid, p.d2, p.alpha2))
    assert implicit_solver(ops, cfg.dt).name == "symmetrized"


@pytest.mark.parametrize(
    "n,species",
    [
        (3, ((1e-3, 1.99), (1.0, -1.99))),
        (40, ((1e-3, -1.99), (1.0, 1.99))),
    ],
    ids=["n3-peclet1.99", "n40-peclet1.99"],
)
def test_peclet_extremes_get_the_modal_banded_solve(n, species):
    assert min(_spread(n, peclet) for _, peclet in species) > MAX_SYMMETRIZER_SPREAD
    assert _solver_for(n, *species).name == "modal-banded"


@pytest.mark.parametrize("n", [3, 12, 40])
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_spread_rule_selects_the_solve(n, factor):
    # One species just inside or just outside the limit decides for both.
    peclet = _peclet(n, factor * MAX_SYMMETRIZER_SPREAD)
    assert _spread(n, peclet) == pytest.approx(factor * MAX_SYMMETRIZER_SPREAD)
    solver = _solver_for(n, (0.5, 0.0), (0.02, -peclet))
    assert solver.name == ("symmetrized" if factor < 1.0 else "modal-banded")


# ---------------------------------------------------------------------
# the 1-D symmetrized solve against solve_banded on the stacked matrix
# ---------------------------------------------------------------------


def _stacked_1d(n, species, dt):
    """Operators for ``species`` (d, grid Peclet number) on n cells, and the
    solve_banded storage of I - dt*blockdiag(L_1, ..., L_S)."""
    grid = Grid(1, 0.0, 1.0, n)
    ops = tuple(transport_for(grid, d, peclet * d / grid.h) for d, peclet in species)
    ab = np.concatenate(
        [np.array([np.insert(-dt * op.bands[2], 0, 0.0), 1.0 - dt * op.bands[1], np.append(-dt * op.bands[0], 0.0)])
         for op in ops],
        axis=1,
    )
    return ops, ab


def _assert_matches_solve_banded(ops, ab, dt, b):
    """Componentwise, |x - x_ref| <= 8*eps * A^-1 (|A| |x_ref|).

    Both solves are componentwise backward stable: the LU factors of a
    tridiagonal M-matrix satisfy |L||U| = |A|, so each solves a matrix
    within a few roundings of each entry of A.  The symmetrized solve
    adds one rounding to b and one to x for the scalings, and its
    symmetrizer's rounding (exp and cumsum, at most ln(10) in log s)
    perturbs each entry by about (2 + ln 10)*eps/2.  Since A^-1 >= 0, a
    relative perturbation delta of A's entries moves x by at most about
    delta * A^-1 (|A| |x|), and A^-1 |A| >= I covers the scalings: the
    two solves differ by at most about 6*eps of it.  The worst over 3,000
    random draws was 2.0*eps of it.
    """
    x = _solve_in_field_units(_symmetrized(ops, dt), b)
    reference = scipy.linalg.solve_banded((1, 1), ab, b)
    magnitude = np.abs(ab[1]) * np.abs(reference)
    magnitude[:-1] += np.abs(ab[0, 1:]) * np.abs(reference[1:])
    magnitude[1:] += np.abs(ab[2, :-1]) * np.abs(reference[:-1])
    bound = 8 * np.finfo(float).eps * scipy.linalg.solve_banded((1, 1), ab, magnitude)
    assert np.all(np.abs(x - reference) <= bound)
    return x


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 300),
    species=st.lists(_symmetric_species, min_size=1, max_size=3),
    dt=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, species=[(1e-3, 1.0, 1.0), (1.0, 1.0, -1.0)], dt=1e3, seed=0)
@example(n=300, species=[(1e-3, 1.0, -1.0), (1.0, 0.0, 1.0)], dt=1e-3, seed=0)
def test_symmetrized_solve_matches_solve_banded(n, species, dt, seed):
    # Every spread up to MAX_SYMMETRIZER_SPREAD, either drift direction,
    # one to three species.  A signed right-hand side checks agreement; a
    # nonnegative one with zeros must also give an output that is exactly
    # nonnegative, with no clamp.
    pairs = [(d, sign * _peclet(n, MAX_SYMMETRIZER_SPREAD**fraction)) for d, fraction, sign in species]
    ops, ab = _stacked_1d(n, pairs, dt)
    rng = np.random.default_rng(seed)
    _assert_matches_solve_banded(ops, ab, dt, rng.standard_normal(ab.shape[1]))
    b = rng.uniform(0.0, 1.0, ab.shape[1]) * (rng.random(ab.shape[1]) < 0.7)
    assert _assert_matches_solve_banded(ops, ab, dt, b).min() >= 0.0
    zero = _solve_in_field_units(_symmetrized(ops, dt), np.zeros(ab.shape[1]))
    np.testing.assert_array_equal(zero, 0.0)


@pytest.mark.parametrize("n", [3, 12, 64])
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_spread_rule_selects_the_1d_solve(n, factor):
    # One species just inside or just outside the limit decides for both;
    # either solve matches solve_banded (bitwise for the banded one).
    peclet = _peclet(n, factor * MAX_SYMMETRIZER_SPREAD)
    dt = 0.5
    ops, ab = _stacked_1d(n, [(0.5, 0.0), (0.02, -peclet)], dt)
    solver = implicit_solver(ops, dt)
    b = np.random.default_rng(n).uniform(0.0, 1.0, 2 * n)
    if factor < 1.0:
        assert solver.name == "symmetrized"
        x = _solve_in_field_units(solver, b)
        np.testing.assert_array_equal(x, _assert_matches_solve_banded(ops, ab, dt, b))
    else:
        assert solver.name == "banded"
        x = _solve_in_field_units(solver, b)
        np.testing.assert_array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))


# ---------------------------------------------------------------------
# every step solve writes its solution over its argument
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "dim,make,name",
    [(1, _symmetrized, "symmetrized"), (1, _banded, "banded"),
     (2, _symmetrized, "symmetrized"), (2, _banded, "modal-banded")],
    ids=["symmetrized", "banded", "symmetrized-2d", "modal-banded"],
)
def test_step_solve_writes_its_solution_over_its_argument(dim, make, name):
    # The stepper hands the solve its state and reads the state back,
    # never a return value: every kind leaves the solution in c.
    grid = Grid(dim, 0.0, 1.0, 12)
    ops = (transport_for(grid, 0.5, 0.3), transport_for(grid, 0.05, -0.2))
    solver = make(ops, 0.5)
    assert solver.name == name
    b = np.random.default_rng(dim).standard_normal(2 * grid.size)
    c = b / solver.scale
    solver.solve(c)
    eye = sparse.identity(grid.size)
    m = sparse.block_diag([eye - 0.5 * op.matrix for op in ops], format="csr")
    np.testing.assert_allclose(m @ (solver.scale * c), b, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 300),
    species=st.lists(_symmetric_species, min_size=1, max_size=3),
    dt=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["symmetrized", "banded"]),
)
@example(n=3, species=[(1e-3, 1.0, 1.0), (1.0, 1.0, -1.0)], dt=1e3, seed=0, kind="banded")
@example(n=300, species=[(1e-3, 1.0, -1.0), (1.0, 0.0, 1.0)], dt=1e3, seed=0, kind="symmetrized")
def test_1d_step_solves_keep_a_nonnegative_right_side_nonnegative(n, species, dt, seed, kind):
    # I - dt*L is a column-dominant M-matrix: every multiplier of either
    # LAPACK sweep is <= 0, so no sweep subtracts two positive numbers, and
    # a nonnegative right side (zeros included, over 60 orders of
    # magnitude) gives a solution that is exactly nonnegative, with no
    # -0.0.  This is why a clamp event always comes from a negative
    # explicit half.  The symmetrized kind takes every spread up to
    # MAX_SYMMETRIZER_SPREAD; the banded one grid Peclet numbers up to 1.99.
    if kind == "symmetrized":
        pairs = [(d, sign * _peclet(n, MAX_SYMMETRIZER_SPREAD**f)) for d, f, sign in species]
    else:
        pairs = [(d, sign * 1.99 * f) for d, f, sign in species]
    ops, _ = _stacked_1d(n, pairs, dt)
    solver = (_symmetrized if kind == "symmetrized" else _banded)(ops, dt)
    rng = np.random.default_rng(seed)
    size = n * len(species)
    c = np.where(rng.random(size) < 0.7, rng.uniform(0.0, 1.0, size), 0.0)
    c *= 10.0 ** rng.uniform(-30.0, 30.0, size)
    solver.solve(c)
    assert np.all(c >= 0.0) and not np.any(np.signbit(c))
