import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rivercomp.errors import SolverError
from rivercomp.grid import make_grid
from rivercomp.linsolve import SeparableSolve, factorize
from rivercomp.operators import transport_for


def test_tridiagonal_solve_matches_dense():
    rng = np.random.default_rng(7)
    n = 40
    main = 4.0 + rng.random(n)
    off = rng.random(n - 1)
    m = sparse.diags([off, main, off * 0.5], offsets=[-1, 0, 1], format="csr")
    b = rng.standard_normal(n)
    x = factorize(m).solve(b)
    np.testing.assert_allclose(m @ x, b, atol=1e-12)


def test_factorization_reusable():
    m = sparse.diags([[1.0, 1.0], [3.0, 3.0, 3.0], [1.0, 1.0]], offsets=[-1, 0, 1], format="csr")
    f = factorize(m)
    for seed in range(3):
        b = np.random.default_rng(seed).random(3)
        np.testing.assert_allclose(m @ f.solve(b), b, atol=1e-13)


def test_wider_bandwidth_takes_sparse_path():
    # pentadiagonal falls back to sparse LU, same answers
    rng = np.random.default_rng(11)
    n = 30
    m = sparse.diags(
        [rng.random(n - 2), rng.random(n - 1), 5.0 + rng.random(n), rng.random(n - 1), rng.random(n - 2)],
        offsets=[-2, -1, 0, 1, 2],
        format="csr",
    )
    b = rng.standard_normal(n)
    np.testing.assert_allclose(m @ factorize(m).solve(b), b, atol=1e-11)


# ---------------------------------------------------------------------
# singular matrices, small systems, and the tridiagonal path's oracles
# ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "dense",
    [
        [[1.0, 1.0], [1.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    ],
    ids=["2x2", "diag(1,0,1)"],
)
def test_singular_matrix_raises_solver_error(dense):
    with pytest.raises(SolverError, match="singular"):
        factorize(sparse.csr_matrix(np.array(dense)))


@pytest.mark.parametrize("n", [1, 2])
def test_small_tridiagonal_systems(n):
    m = sparse.diags([np.full(n - 1, -1.0), np.full(n, 3.0), np.full(n - 1, -0.5)], [-1, 0, 1], format="csr")
    b = np.arange(1.0, n + 1.0)
    np.testing.assert_allclose(m @ factorize(m).solve(b), b, rtol=1e-15)


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
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
@example(n=1, seed=0)
@example(n=2, seed=0)
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
    _assert_matches_splu(m, b, factorize(m).solve(b))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    dt=st.floats(1e-3, 1e3),
)
@example(n=1, seed=0, dt=1.0)
@example(n=2, seed=0, dt=1.0)
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
    x = factorize(m).solve(b)
    _assert_matches_splu(m, b, x)
    if n >= 3:
        # The tridiagonal path performs gtsv's operations: bitwise equal to
        # the banded solver it replaces.  Smaller systems go through splu.
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = -dt * above, d, -dt * below
        np.testing.assert_array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))


# ---------------------------------------------------------------------
# the 2-D modal solve against splu on the same stacked matrix
# ---------------------------------------------------------------------


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
    # I - dt*blockdiag(L1, L2) for two species with different d and alpha.
    # It is an M-matrix, so its inverse is nonnegative and one solve on a
    # vector of ones gives ||A^-1||_inf exactly: the infinity-norm condition
    # number costs no dense factorization.  The DCTs sum n terms per entry,
    # so the residual bound grows with n.
    grid = make_grid(2, 0.0, 1.0, n)
    ops = tuple(transport_for(grid, d, peclet * d / grid.h) for d, peclet in species)
    eye = sparse.identity(grid.size, format="csr")
    m = sparse.block_diag([eye - dt * op.matrix for op in ops], format="csc")
    b = np.random.default_rng(seed).standard_normal(2 * grid.size)
    x = SeparableSolve(ops, dt).solve(b)

    eps = np.finfo(float).eps
    x_inf = np.max(np.abs(x))
    m_inf = abs(m).sum(axis=1).max()
    residual = np.max(np.abs(m @ x - b))
    assert residual <= 8 * n * eps * (m_inf * x_inf + np.max(np.abs(b)))
    lu = spla.splu(m)
    cond = m_inf * np.max(lu.solve(np.ones(2 * grid.size)))
    assert np.max(np.abs(x - lu.solve(b))) <= 1e3 * eps * cond * x_inf
