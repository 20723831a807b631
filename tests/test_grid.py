import numpy as np
import pytest

from rivercomp.errors import ConfigError
from rivercomp.grid import Field, make_grid, sample_expression


def test_centers_and_spacing():
    g = make_grid(1, 0.0, 1.0, 4)
    assert g.h == 0.25
    np.testing.assert_allclose(g.centers, [0.125, 0.375, 0.625, 0.875])


def test_centers_offset_domain():
    g = make_grid(1, -1.0, 3.0, 8)
    assert g.h == 0.5
    assert g.centers[0] == -0.75
    assert g.centers[-1] == 2.75


def test_grid_validation():
    with pytest.raises(ConfigError):
        make_grid(3, 0.0, 1.0, 8)
    with pytest.raises(ConfigError):
        make_grid(1, 0.0, 1.0, 2)
    with pytest.raises(ConfigError):
        make_grid(1, 1.0, 1.0, 8)


def test_field_shape_and_finite_checks():
    g = make_grid(1, 0.0, 1.0, 4)
    with pytest.raises(ConfigError):
        Field(g, np.zeros(5))
    with pytest.raises(ConfigError):
        Field(g, np.array([1.0, np.nan, 0.0, 0.0]))


def test_mass_is_midpoint_rule():
    # integral of x over [0,1] is 1/2; midpoint rule is exact for linear fields
    g = make_grid(1, 0.0, 1.0, 16)
    f = Field(g, g.centers.copy())
    assert abs(f.mass - 0.5) < 1e-15


def test_2d_layout_x_fastest():
    g = make_grid(2, 0.0, 1.0, 3)
    assert g.size == 9
    assert g.cell_volume == pytest.approx(g.h * g.h)
    x, y = g.coordinate_arrays()
    # first row of cells shares y, x varies
    np.testing.assert_allclose(x[:3], g.centers)
    np.testing.assert_allclose(y[:3], g.centers[0])
    f = sample_expression(g, "x")
    rows = f.values.reshape(g.n, g.n)  # y is the slow axis
    np.testing.assert_allclose(rows[0], g.centers)
    np.testing.assert_allclose(rows[:, 1], g.centers[1])


def test_sample_expression_positivity_range():
    g = make_grid(1, 0.0, 1.0, 64)
    k = sample_expression(g, "2 + cos(pi*x)")
    assert k.values.min() > 1.0
    assert k.values.max() < 3.0
