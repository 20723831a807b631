"""Transport operator assembly: conservation, sign structure, consistency."""

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercomp.errors import ConfigError, GridResolutionError
from rivercomp.grid import Grid
from rivercomp.operators import check_peclet, dct_basis, transport_for


def test_hand_assembled_3x3():
    # n=3 on [0,1] with d=1, alpha=0: diff = d/h^2 = 9.
    op = transport_for(Grid(1, 0.0, 1.0, 3), d=1.0, alpha=0.0)
    m = op.matrix.toarray()
    np.testing.assert_array_equal(m[0], [-9.0, 9.0, 0.0])
    np.testing.assert_array_equal(m[1], [9.0, -18.0, 9.0])
    np.testing.assert_array_equal(m[2], [0.0, 9.0, -9.0])


def test_hand_apply_3x3():
    op = transport_for(Grid(1, 0.0, 1.0, 3), d=1.0, alpha=0.0)
    np.testing.assert_array_equal(op.apply(np.array([1.0, 2.0, 4.0])), [9.0, 9.0, -18.0])


def test_constants_annihilated_without_drift():
    op = transport_for(Grid(1, 0.0, 1.0, 17), d=0.3, alpha=0.0)
    np.testing.assert_array_equal(op.apply(np.full(17, 2.5)), 0.0)


def test_column_sums_zero_with_drift():
    op = transport_for(Grid(1, 0.0, 1.0, 4), d=0.08, alpha=0.05)
    assert op.peclet == pytest.approx(0.15625)
    sums = np.asarray(op.matrix.sum(axis=0)).ravel()
    assert np.max(np.abs(sums)) < 1e-14
    m = op.matrix.toarray()
    off = m[~np.eye(4, dtype=bool)]
    assert np.all(off[np.abs(off) > 0] > 0)


def test_mass_conservation_random_fields():
    rng = np.random.default_rng(5)
    g = Grid(1, 0.0, 2.0, 37)
    op = transport_for(g, d=0.11, alpha=0.09)
    for _ in range(20):
        f = rng.random(37) * 10.0
        assert abs(op.apply(f).sum()) <= 1e-12 * 37 * np.abs(f).max()


def test_peclet_guard_names_minimum_n():
    g = Grid(1, 0.0, 1.0, 4)
    with pytest.raises(GridResolutionError) as err:
        transport_for(g, d=0.001, alpha=0.05)
    n_min = err.value.n_min
    assert "n = %d" % n_min in str(err.value)
    # the smallest advertised n really does restore peclet < 2
    assert check_peclet(Grid(1, 0.0, 1.0, n_min), 0.001, 0.05) < 2.0
    with pytest.raises(GridResolutionError):
        check_peclet(Grid(1, 0.0, 1.0, n_min - 1), 0.001, 0.05)


def test_nonpositive_diffusion_rejected():
    with pytest.raises(ConfigError):
        check_peclet(Grid(1, 0.0, 1.0, 8), 0.0, 0.1)


def test_metzler_structure_under_guard():
    # all off-diagonals nonnegative for every assembly that passes the guard
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(3, 80))
        d = float(rng.uniform(0.01, 2.0))
        g = Grid(1, 0.0, 1.0, n)
        alpha = float(rng.uniform(0.0, 1.99)) * d / g.h
        op = transport_for(g, d, alpha)
        m = op.matrix.tocoo()
        off = m.data[m.row != m.col]
        assert np.all(off >= 0.0)


def test_exact_kernel_exp_profile():
    # u = exp(alpha*x/d) has identically zero flux.  The discrete image
    # vanishes under refinement: second order in the interior and in the
    # cell-weighted L1 norm; the two boundary cells alone are first order
    # (one face of the pair is exact, so the error no longer telescopes).
    d, alpha = 0.5, 0.8
    sup, interior, l1 = [], [], []
    for n in (32, 64, 128):
        g = Grid(1, 0.0, 1.0, n)
        op = transport_for(g, d, alpha)
        u = np.exp(alpha * g.centers / d)
        img = np.abs(op.apply(u))
        sup.append(img.max())
        interior.append(img[2:-2].max())
        l1.append(g.h * img.sum())
    assert sup[0] > sup[1] > sup[2]
    assert interior[0] / interior[1] == pytest.approx(4.0, rel=0.2)
    assert l1[1] / l1[2] == pytest.approx(4.0, rel=0.2)


def test_interior_consistency_second_order():
    # generic smooth field: (d u_x - alpha u)_x recovered at O(h^2) away
    # from the boundary faces (the no-flux rows encode a different BC).
    d, alpha = 0.2, 0.3
    errs = []
    for n in (64, 128):
        g = Grid(1, 0.0, 1.0, n)
        op = transport_for(g, d, alpha)
        x = g.centers
        u = np.sin(x) + 2.0
        exact = d * -np.sin(x) - alpha * np.cos(x)
        interior = slice(2, n - 2)
        errs.append(np.abs(op.apply(u) - exact)[interior].max())
    assert errs[0] / errs[1] > 3.0


def test_2d_constant_annihilated_and_conservative():
    g = Grid(2, 0.0, 1.0, 4)
    pure_diffusion = transport_for(g, d=0.005, alpha=0.0)
    # five summands per row, so cancellation is down to rounding rather
    # than exact as in the tridiagonal case
    np.testing.assert_allclose(pure_diffusion.apply(np.ones(16)), 0.0, atol=1e-15)
    # with drift, constants are no longer in the kernel (the no-flux wall
    # piles mass up), but conservation still holds column by column
    op = transport_for(g, d=0.005, alpha=0.002)
    sums = np.asarray(op.matrix.sum(axis=0)).ravel()
    assert np.max(np.abs(sums)) < 1e-14


def test_2d_separable_matches_1d():
    # a field depending on x only sees the 1-D operator row by row
    g2 = Grid(2, 0.0, 1.0, 8)
    g1 = Grid(1, 0.0, 1.0, 8)
    op2 = transport_for(g2, d=0.05, alpha=0.03)
    op1 = transport_for(g1, d=0.05, alpha=0.03)
    gx = np.cos(g1.centers)
    f2 = np.tile(gx, 8)
    expect = np.tile(op1.apply(gx), 8)
    np.testing.assert_allclose(op2.apply(f2), expect, atol=1e-13)


def test_dimension_dispatch():
    assert transport_for(Grid(1, 0.0, 1.0, 8), 1.0, 0.0).grid.dim == 1
    assert transport_for(Grid(2, 0.0, 1.0, 4), 1.0, 0.0).grid.dim == 2


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 200),
    d=st.floats(1e-3, 10.0),
    peclet=st.floats(-1.99, 1.99),
)
def test_bands_rebuild_the_matrix_array_for_array(n, d, peclet):
    # The steady, eigen and stepping layers factor 1-D systems from the
    # bands alone, so the bands must be exactly the matrix the rest of the
    # package applies, and must not be writable through the operator.
    grid = Grid(1, 0.0, 1.0, n)
    op = transport_for(grid, d, peclet * d / grid.h)
    rebuilt = sparse.diags(list(op.bands), offsets=[-1, 0, 1], format="csr")
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(rebuilt, name), getattr(op.matrix, name))
    assert [band.shape for band in op.bands] == [(n - 1,), (n,), (n - 1,)]
    assert not any(band.flags.writeable for band in op.bands)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 40),
    d=st.floats(1e-3, 10.0),
    peclet=st.floats(-1.99, 1.99),
)
def test_2d_bands_and_y_modes_rebuild_the_kronecker_sum(n, d, peclet):
    # A 2-D operator is Lx's bands plus Ly's DCT eigenvalues; its CSR
    # matrix, built on first read, is the Kronecker sum I⊗Lx + Ly⊗I
    # assembled by hand from the 1-D operators along each axis.
    grid = Grid(2, 0.0, 1.0, n)
    alpha = peclet * d / grid.h
    op = transport_for(grid, d, alpha)
    assert "matrix" not in op.__dict__
    line = Grid(1, 0.0, 1.0, n)
    lx, ly = transport_for(line, d, alpha), transport_for(line, d, 0.0)
    eye = sparse.identity(n, format="csr")
    kron_sum = (sparse.kron(eye, lx.matrix) + sparse.kron(ly.matrix, eye)).tocsr()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(op.matrix, name), getattr(kron_sum, name))
    for band, expected in zip(op.bands, lx.bands):
        np.testing.assert_array_equal(band, expected)
    assert not any(band.flags.writeable for band in op.bands)
    # λ_j = -(4d/h²)·sin²(πj/2n), bit for bit, and C·Ly·Cᵀ = diag(λ) to rounding.
    h = grid.h
    lam = -(4.0 * d / (h * h)) * np.sin(0.5 * np.pi * np.arange(n) / n) ** 2
    np.testing.assert_array_equal(op.y_modes, lam)
    c = dct_basis(n)
    modal = c @ ly.matrix.toarray() @ c.T
    np.testing.assert_allclose(modal, np.diag(op.y_modes), rtol=0, atol=1e-12 * 4.0 * d / (h * h))
    assert not op.y_modes.flags.writeable
