"""The 1-D steady and eigen layers work straight from operator bands.

Each band path keeps its sparse oracle here: the band products against
CSR products, the pair Jacobian against a ``sparse.bmat`` assembly, the
pair Newton's factors in a reused column order against ``splu`` ordering
every Jacobian afresh, the Newton, march and eigen loops against the
same loops run on the sparse matrices they used to assemble, and the
near-singular flag against a dense condition number, its 2-D estimate
against the fresh ``splu`` it used to take.
"""

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercomp import linsolve, spectral, steady
from rivercomp.config import parse_config
from rivercomp.errors import SolverError
from rivercomp.grid import Grid
from rivercomp.operators import transport_for
from rivercomp.spectral import invasion_potential, principal_eigenpair, semitrivial_stability
from rivercomp.stepping import Stepper, integrate

from oracles import dense_principal_eigenpair

SLOW = dict(d1=0.002, d2=0.001, alpha1=0.001, alpha2=0.0006, mu=0.3)


def setup(n=64, dim=1, **params):
    cfg = parse_config(overrides=dict(params or SLOW, n=n, dim=dim))
    grid = cfg.grid()
    p = cfg.params
    return grid, cfg.effective(grid), transport_for(grid, p.d1, p.alpha1), transport_for(grid, p.d2, p.alpha2)


# ---------------------------------------------------------------------
# band products against CSR products
# ---------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(3, 200),
    d=st.floats(1e-3, 10.0),
    peclet=st.floats(-1.99, 1.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_products_equal_csr_products(n, d, peclet, seed):
    grid = Grid(1, 0.0, 1.0, n)
    op = transport_for(grid, d, peclet * d / grid.h)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
    x[rng.random(n) < 0.1] = 0.0
    p = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    # L·x, as the steady residuals take it.
    np.testing.assert_array_equal(op.apply(x), op.matrix @ x)
    # (L + diag(p))·x and the row sums of |L + diag(p)|, as the eigen
    # iteration takes them.
    m = (op.matrix + sparse.diags(p)).tocsr()
    matvec, rows = spectral._shifted_matvec(op, p)
    np.testing.assert_array_equal(matvec(x), m @ x)
    np.testing.assert_array_equal(rows, np.asarray(np.abs(m).sum(axis=1)).ravel())


def test_1d_steady_and_eigen_layers_build_no_operator_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the 1-D steady and eigen layers must not call sparse.diags")

    monkeypatch.setattr(sparse, "diags", refuse)
    grid, eff, op1, op2 = setup(n=64)
    u = steady.solve_single_steady(op1, eff).u
    report = principal_eigenpair(op2, invasion_potential(u, eff))
    # The pair residual and Jacobian read the bands too.
    _, sym_eff, sym_op, _ = setup(n=64, d1=0.05, d2=0.05, alpha1=0.02, alpha2=0.02, mu=0.1)
    assert steady.solve_coexistence(sym_op, sym_op, sym_eff) is not None
    monkeypatch.undo()
    # The dense oracle reads the sparse matrix, built on this first read.
    dense = dense_principal_eigenpair(op2, invasion_potential(u, eff))
    assert abs(report.growth_rate - dense.growth_rate) <= 1e-9 * abs(dense.growth_rate)


# ---------------------------------------------------------------------
# pair Jacobian: CSC arrays against the bmat assembly
# ---------------------------------------------------------------------


def bmat_jacobian(op1, op2, eff, u, v):
    """The pair Jacobian as assembled block by block with ``sparse.bmat``."""
    rr1, K1 = eff.rr1, eff.K1
    j11 = op1.matrix + sparse.diags(rr1 * (1.0 - (2.0 * u + v) / K1))
    j22 = op2.matrix + sparse.diags(rr1 * (1.0 - (u + 2.0 * v) / K1))
    j12 = sparse.diags(-rr1 * u / K1)
    j21 = sparse.diags(-rr1 * v / K1)
    return sparse.bmat([[j11, j12], [j21, j22]], format="csc")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    dim=st.sampled_from([1, 1, 2]),
    zeros=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_jacobian_csc_matches_bmat(n, dim, zeros, seed):
    # Exact zeros in u or v zero the coupling diagonals there; bmat drops
    # those entries, and the direct assembly stores them.
    grid, eff, op1, op2 = setup(n=n if dim == 1 else min(n, 12), dim=dim, **dict(SLOW, alpha1=-0.003))
    rng = np.random.default_rng(seed)
    u, v = 2.0 * rng.random(grid.size), 2.0 * rng.random(grid.size)
    u[rng.random(grid.size) < zeros] = 0.0
    v[rng.random(grid.size) < zeros] = 0.0
    got = steady._PairJacobian(op1, op2, eff)(u, v)
    want = bmat_jacobian(op1, op2, eff, u, v)
    np.testing.assert_array_equal(got.toarray(), want.toarray())
    # The whole pattern: both operators' and the two coupling diagonals.
    assert got.nnz == op1.matrix.nnz + op2.matrix.nnz + 2 * grid.size
    if dim == 1:
        assert got.nnz == 8 * grid.size - 4
    # Stored zeros aside, the arrays are bmat's, bit for bit: all of them
    # where no value is exactly zero.
    kept = got.copy()
    kept.eliminate_zeros()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(kept, name), getattr(want, name))


def test_pair_jacobian_stores_a_cancelled_diagonal_entry():
    # A diagonal entry of L1 + D11 that cancels to exactly zero.
    grid, eff, op1, op2 = setup(n=8)
    u, v = np.full(grid.size, 0.5), np.full(grid.size, 0.5)
    rr1, K1 = eff.rr1, eff.K1
    target = -op1.matrix.diagonal()[3]
    v[3] = K1[3] * (1.0 - target / rr1[3]) - 2.0 * u[3]
    assert op1.matrix.diagonal()[3] + rr1[3] * (1.0 - (2.0 * u[3] + v[3]) / K1[3]) == 0.0
    got = steady._PairJacobian(op1, op2, eff)(u, v)
    want = bmat_jacobian(op1, op2, eff, u, v)
    assert got.nnz == 8 * grid.size - 4 == want.nnz + 1
    start, stop = got.indptr[3], got.indptr[4]
    assert 3 in got.indices[start:stop]
    assert got.data[start:stop][got.indices[start:stop] == 3] == 0.0
    np.testing.assert_array_equal(got.toarray(), want.toarray())


# ---------------------------------------------------------------------
# pair Newton: later factors in the first factor's order, against splu
# ---------------------------------------------------------------------

WEAK = dict(d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04, mu=0.009)
FAST = dict(d1=3.0, d2=0.8, alpha1=0.7, alpha2=0.03, mu=0.1)
SYMMETRIC = dict(d1=0.05, d2=0.05, alpha1=0.02, alpha2=0.02, mu=0.1)


def marched_start(n):
    """K = 1 + x at alpha2 = 9e-4, marched in time to t = 2000: a pair's
    neighbourhood, from which the pair Newton converges in a few updates."""
    cfg = parse_config(overrides=dict(SLOW, alpha2=9e-4, K="1 + x", n=n, dt=1.0))
    grid = cfg.grid()
    eff = cfg.effective(grid)
    p = cfg.params
    op1, op2 = transport_for(grid, p.d1, p.alpha1), transport_for(grid, p.d2, p.alpha2)
    stepper = Stepper(op1, op2, p, eff, dt=cfg.dt, form=cfg.reaction_form)
    integrate(stepper, *cfg.initial_fields(grid), 2000.0)
    return eff, op1, op2, stepper.fields()


def plain_splu_solve(jacobian, u, v, rhs):
    """The reference step: ``splu`` of the natural-order Jacobian, ordered afresh."""
    return spla.splu(jacobian(u, v)).solve(rhs)


def pair_newton(monkeypatch, op1, op2, eff, guess=None, solve=None):
    """The outcome of ``solve_coexistence`` (a pair, None or the error
    message), every factor its Newton took with the (u, v) and Jacobian it
    was taken at, and the ``permc_spec`` of every ``splu`` call."""
    factor, splu = steady._PairJacobian.factor, spla.splu
    factors, specs = [], []

    def recording_factor(self, u, v):
        lu, label = factor(self, u, v)
        factors.append((self, u.copy(), v.copy(), lu, label))
        return lu, label

    def counting_splu(matrix, permc_spec=None, **kwargs):
        specs.append(permc_spec or "COLAMD")
        return splu(matrix, permc_spec=permc_spec, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(steady._PairJacobian, "factor", recording_factor)
        patch.setattr(spla, "splu", counting_splu)
        if solve is not None:
            patch.setattr(steady._PairJacobian, "solve", solve)
        try:
            outcome = steady.solve_coexistence(op1, op2, eff, guess=guess)
        except SolverError as exc:
            outcome = str(exc)
    return outcome, factors, specs


def assert_same_outcome(got, want):
    if isinstance(want, steady.CoexistencePair):
        assert isinstance(got, steady.CoexistencePair)
        np.testing.assert_array_equal(got.u, want.u)
        np.testing.assert_array_equal(got.v, want.v)
        assert (got.residual, got.iterations, got.jacobian_near_singular) == (
            want.residual,
            want.iterations,
            want.jacobian_near_singular,
        )
    else:
        assert got == want


def assert_same_factor(lu, label, plain, rhs):
    """A factor of the relabelled Jacobian against ``splu`` of the natural one."""
    np.testing.assert_array_equal(lu.perm_c[label], plain.perm_c)
    np.testing.assert_array_equal(lu.perm_r[label], plain.perm_r)
    for factor in ("L", "U"):
        got, want = getattr(lu, factor), getattr(plain, factor)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    b = np.empty_like(rhs)
    b[label] = rhs
    np.testing.assert_array_equal(lu.solve(b)[label], plain.solve(rhs))


def assert_first_order_labels(factors):
    """The first factor's labels are the identity, every later one's its ``perm_c``."""
    first_lu, first_label = factors[0][3:]
    np.testing.assert_array_equal(first_label, np.arange(len(first_label)))
    for *_, lu, label in factors[1:]:
        np.testing.assert_array_equal(lu.perm_c, np.arange(len(label)))
        np.testing.assert_array_equal(label, first_lu.perm_c)


def newton_case(case):
    if case == "K=1+x marched":
        eff, op1, op2, guess = marched_start(256)
        return op1, op2, eff, guess
    family, n, dim = case
    _, eff, op1, op2 = setup(n=n, dim=dim, **family)
    return op1, op2, eff, None


NEWTON_CASES = [
    *[
        pytest.param((family, n, 1), id=f"{name}-{n}")
        for name, family in (("weak", WEAK), ("slow", SLOW), ("fast", FAST))
        for n in (128, 512)
    ],
    pytest.param("K=1+x marched", id="K=1+x-marched"),
    pytest.param((SYMMETRIC, 64, 1), id="symmetric-64"),
    pytest.param((SYMMETRIC, 24, 2), id="symmetric-24x24"),
]


@pytest.mark.parametrize("case", NEWTON_CASES)
def test_pair_newton_factors_in_its_first_order_bitwise(monkeypatch, case):
    op1, op2, eff, guess = newton_case(case)
    got, factors, specs = pair_newton(monkeypatch, op1, op2, eff, guess)
    want, _, _ = pair_newton(monkeypatch, op1, op2, eff, guess, solve=plain_splu_solve)
    assert_same_outcome(got, want)
    if isinstance(case, str) or case[0] is SYMMETRIC:
        assert isinstance(got, steady.CoexistencePair)

    # COLAMD orders the first Jacobian alone; every later one is factored
    # in that order.  A found pair's near-singular flag, in either
    # dimension, takes the last factor: the pair's own Jacobian, in that
    # order too.
    assert len(factors) >= 3
    assert_first_order_labels(factors)
    assert specs == ["COLAMD"] + ["NATURAL"] * (len(factors) - 1)
    if isinstance(got, steady.CoexistencePair):
        _, u, v, _, _ = factors[-1]
        np.testing.assert_array_equal(u, got.u)
        np.testing.assert_array_equal(v, got.v)

    rhs = np.sin(np.arange(2 * op1.grid.size) + 0.5)
    for jacobian, u, v, lu, label in factors:
        assert_same_factor(lu, label, spla.splu(jacobian(u, v)), rhs)


def every_fourth_u_zero(K1):
    u = K1 / 3.0
    u[::4] = 0.0
    return u, K1 / 3.0


@pytest.mark.parametrize(
    "start, zeros",
    [
        # u = 0 at every fourth cell zeroes D12 there, until the first
        # update fills it.
        pytest.param(every_fourth_u_zero, 32, id="u-zero-every-fourth-cell"),
        # A lone state's start: v = 0 zeroes the whole D21 block.
        pytest.param(lambda K1: (K1 / 3.0, np.zeros_like(K1)), 128, id="v-zero-lone-start"),
    ],
)
def test_a_zero_in_the_start_keeps_the_first_order(monkeypatch, start, zeros):
    # The zeros are stored: the pattern, and so COLAMD's order, is the
    # operators', whatever the values.
    _, eff, op1, op2 = setup(n=128, **WEAK)
    guess = start(eff.K1)
    got, factors, specs = pair_newton(monkeypatch, op1, op2, eff, guess)
    want, _, _ = pair_newton(monkeypatch, op1, op2, eff, guess, solve=plain_splu_solve)
    assert_same_outcome(got, want)

    jacobian = factors[0][0]
    first = jacobian(*guess)
    assert first.nnz == 8 * op1.grid.size - 4
    assert np.count_nonzero(first.data == 0.0) == zeros
    assert len(factors) >= 4
    assert_first_order_labels(factors)
    assert specs == ["COLAMD"] + ["NATURAL"] * (len(factors) - 1)
    rhs = np.cos(np.arange(2 * op1.grid.size))
    for jacobian, u, v, lu, label in factors:
        assert_same_factor(lu, label, spla.splu(jacobian(u, v)), rhs)


# ---------------------------------------------------------------------
# 1-D Newton, march and eigen loops against their sparse assemblies
# ---------------------------------------------------------------------


def assembled(op, shift=0.0, scale=1.0, potential=None):
    """The sparse matrix each 1-D caller assembled before the band path.

    Built with the callers' own sparse expressions: I - dt·L for the
    steady march, L + diag(c) for the steady Newton step, shift·I -
    (L + diag(p)) for the eigen shifts.
    """
    eye = sparse.identity(op.grid.size, format="csr")
    if potential is None:
        assert shift == 1.0
        return eye - (-scale) * op.matrix
    if shift == 0.0 and scale == 1.0:
        return op.matrix + sparse.diags(potential)
    assert scale == -1.0
    return eye * shift - (op.matrix + sparse.diags(potential)).tocsr()


def via_diagonals(op, shift=0.0, scale=1.0, potential=None):
    """Factor the assembled matrix from its diagonals, as the sparse path did."""
    m = assembled(op, shift, scale, potential)
    return linsolve.Factorization(m.diagonal(), m.diagonal(-1), m.diagonal(1))


def via_splu(op, shift=0.0, scale=1.0, potential=None):
    return spla.splu(assembled(op, shift, scale, potential).tocsc())


def run_loops(monkeypatch, factor, grid, eff, op1, op2):
    monkeypatch.setattr(steady, "factor_shifted", factor)
    monkeypatch.setattr(spectral, "factor_shifted", factor)
    start = np.full(grid.size, 0.5 * float(np.min(eff.K1)))
    marched, steps = steady._march(op1, eff, start, 1e-5)
    u, _, its = steady._newton_single(op1, eff, marched, 1e-10)
    eigen = principal_eigenpair(op2, invasion_potential(u, eff))
    return marched, steps, u, its, eigen


@pytest.mark.parametrize("n", [64, 256])
def test_band_loops_equal_the_sparse_assembly(monkeypatch, n):
    grid, eff, op1, op2 = setup(n=n)
    with monkeypatch.context() as patch:
        bands = run_loops(patch, linsolve.factor_shifted, grid, eff, op1, op2)
    with monkeypatch.context() as patch:
        diagonals = run_loops(patch, via_diagonals, grid, eff, op1, op2)
    with monkeypatch.context() as patch:
        lu = run_loops(patch, via_splu, grid, eff, op1, op2)

    # The same tridiagonal elimination on the same entries: bitwise.
    for got, want in zip(bands[:4], diagonals[:4]):
        np.testing.assert_array_equal(got, want)
    assert bands[4].growth_rate == diagonals[4].growth_rate
    assert bands[4].iterations == diagonals[4].iterations
    np.testing.assert_array_equal(bands[4].phi, diagonals[4].phi)

    # splu eliminates in another order: the same answers to rounding.
    marched, steps, u, its, eigen = lu
    assert (steps, its) == (bands[1], bands[3])
    np.testing.assert_allclose(marched, bands[0], rtol=1e-10)
    np.testing.assert_allclose(u, bands[2], rtol=1e-12)
    scale = float(np.max(np.abs(op2.matrix).sum(axis=1)))
    assert abs(eigen.growth_rate - bands[4].growth_rate) <= 1e-12 * scale
    np.testing.assert_allclose(eigen.phi, bands[4].phi, rtol=1e-8)


def test_1d_steady_and_eigen_make_no_bmat_call(monkeypatch):
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"the 1-D steady and eigen layers must not call {name}")

        return call

    monkeypatch.setattr(sparse, "bmat", refuse("sparse.bmat"))
    grid, eff, op1, op2 = setup(n=128)
    with monkeypatch.context() as patch:
        # Lone states and eigenpairs need no sparse LU at all.
        patch.setattr(spla, "splu", refuse("splu"))
        u = steady.solve_single_steady(op1, eff).u
        v = steady.solve_single_steady(op2, eff, method="newton").u
        steady.solve_single_steady(op2, eff, method="long-time")
        semitrivial_stability(op2, u, eff)
        semitrivial_stability(op1, v, eff)
    sym_grid, sym_eff, sym_op, _ = setup(n=64, d1=0.05, d2=0.05, alpha1=0.02, alpha2=0.02, mu=0.1)
    assert steady.solve_coexistence(sym_op, sym_op, sym_eff) is not None
    assert steady.solve_coexistence(op1, op2, eff) is None


# ---------------------------------------------------------------------
# near-singular flag against the dense condition number
# ---------------------------------------------------------------------


def symmetric_states(n, dim):
    """The equal-movement family's pair Jacobian and states at scaled lone states.

    At u + v = û the Jacobian is singular; at u + v = (1 + δ)·û its
    condition number grows like 1/δ, so the δ's straddle the 1e10 line.
    """
    grid, eff, op, _ = setup(n=n, dim=dim, d1=0.05, d2=0.05, alpha1=0.02, alpha2=0.02, mu=0.1)
    single = steady.solve_single_steady(op, eff).u
    jacobian = steady._PairJacobian(op, op, eff)
    for delta in (0.3, 1e-3, 1e-6, 1e-9, 1e-12, 1e-14, 0.0):
        yield jacobian, 0.4 * (1.0 + delta) * single, 0.6 * (1.0 + delta) * single


@pytest.mark.parametrize("n, dim", [(8, 1), (32, 1), (128, 1), (512, 1), (4, 2), (6, 2)])
def test_near_singular_agrees_with_dense_condition_number(monkeypatch, n, dim):
    onenormest, estimates = spla.onenormest, []

    def recording_onenormest(*args, **kwargs):
        estimates.append(onenormest(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(spla, "onenormest", recording_onenormest)
    flags = []
    for jacobian, u, v in symmetric_states(n, dim):
        jac = jacobian(u, v)
        cond = np.linalg.cond(jac.toarray(), 1)
        state = np.random.get_state()
        flag = jacobian.near_singular(u, v)
        # No random start: the global generator is left untouched.
        after = np.random.get_state()
        assert state[0] == after[0] and np.array_equal(state[1], after[1]) and state[2:] == after[2:]
        assert jacobian.near_singular(u, v) is flag
        if not 1e9 <= cond <= 1e11:
            assert flag == (cond > 1e10), cond
        flags.append(flag)
        if dim == 2:
            # The 2-D flag's former path, a fresh splu and onenormest, is
            # its oracle: the estimate is the same number.
            lu = spla.splu(jac)
            inverse = spla.LinearOperator(
                jac.shape, matvec=lu.solve, rmatvec=lambda b: lu.solve(b, "T"), dtype=float
            )
            assert estimates == [onenormest(inverse, t=1)] * 2
        estimates.clear()
    assert flags[0] is False and flags[-1] is True
