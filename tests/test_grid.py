import numpy as np
import pytest

from rivercomp.errors import ConfigError
from rivercomp.grid import Grid, sample_expression


def test_centers_and_spacing():
    g = Grid(1, 0.0, 1.0, 4)
    assert g.h == 0.25
    np.testing.assert_allclose(g.centers, [0.125, 0.375, 0.625, 0.875])


def test_centers_offset_domain():
    g = Grid(1, -1.0, 3.0, 8)
    assert g.h == 0.5
    assert g.centers[0] == -0.75
    assert g.centers[-1] == 2.75


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(3, 0.0, 1.0, 8)
    with pytest.raises(ConfigError):
        Grid(1, 0.0, 1.0, 2)
    with pytest.raises(ConfigError):
        Grid(1, 1.0, 1.0, 8)


@pytest.mark.parametrize(
    "text", ["1e200*1e200", "1e200*1e200 - 1e200*1e200", "1 + 1e200*1e200*x"], ids=["inf", "nan", "inf_x"]
)
def test_sample_expression_rejects_non_finite_values(text):
    g = Grid(1, 0.0, 1.0, 4)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConfigError, match="non-finite") as err:
        sample_expression(g, text)
    assert repr(text) in str(err.value)


def test_sample_expression_is_a_flat_float_array():
    for dim, n in ((1, 5), (2, 3)):
        g = Grid(dim, 0.0, 1.0, n)
        for text in ("2", "x + 1"):
            values = sample_expression(g, text)
            assert type(values) is np.ndarray
            assert values.dtype == np.float64 and values.shape == (g.size,)


def test_2d_layout_x_fastest():
    g = Grid(2, 0.0, 1.0, 3)
    assert g.size == 9
    assert g.cell_volume == pytest.approx(g.h * g.h)
    x, y = g.coordinate_arrays()
    # first row of cells shares y, x varies
    np.testing.assert_allclose(x[:3], g.centers)
    np.testing.assert_allclose(y[:3], g.centers[0])
    f = sample_expression(g, "x")
    rows = f.reshape(g.n, g.n)  # y is the slow axis
    np.testing.assert_allclose(rows[0], g.centers)
    np.testing.assert_allclose(rows[:, 1], g.centers[1])


def test_sample_expression_positivity_range():
    g = Grid(1, 0.0, 1.0, 64)
    k = sample_expression(g, "2 + cos(pi*x)")
    assert k.min() > 1.0
    assert k.max() < 3.0
