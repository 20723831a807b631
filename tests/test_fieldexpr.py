import math

import numpy as np
import pytest

from rivercomp.errors import ConfigError
from rivercomp.fieldexpr import compile_field_expression


def test_basic_arithmetic():
    f = compile_field_expression("2 + cos(pi*x)")
    x = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(f(x), 2.0 + np.cos(math.pi * x), rtol=0, atol=0)


def test_constant_broadcasts_to_grid_shape():
    f = compile_field_expression("1")
    out = f(np.zeros(7))
    assert out.shape == (7,)
    assert np.all(out == 1.0)


def test_unary_minus_and_nested_calls():
    f = compile_field_expression("-sin(cos(x)) + 0.5*x")
    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(f(x), -np.sin(np.cos(x)) + 0.5 * x)


def test_two_dimensional_names():
    f = compile_field_expression("2 + cos(pi*x)*cos(pi*y)", names=("x", "y"))
    x = np.array([0.25, 0.75])
    y = np.array([0.5, 0.5])
    np.testing.assert_allclose(f(x, y), 2.0 + np.cos(math.pi * x) * np.cos(math.pi * y))


@pytest.mark.parametrize(
    "bad",
    [
        "x/2",          # no division
        "x**2",         # no powers
        "exp(x)",       # only cos and sin
        "__import__('os')",
        "x + z",        # unknown name
        "cos(x, 2)",    # arity
        "'a'",          # non-numeric literal
        "[1,2]",        # off-grammar syntax
    ],
)
def test_rejects_off_grammar(bad):
    with pytest.raises(ConfigError):
        compile_field_expression(bad)


@pytest.mark.parametrize("bad", ["True + x", "False", "-True"])
def test_rejects_boolean_literals(bad):
    # bool is an int subclass, but True and False are not numeric literals
    # of the grammar.
    with pytest.raises(ConfigError, match="non-numeric literal"):
        compile_field_expression(bad)


def test_y_unavailable_on_1d():
    # "y" is rejected at compile time when only x is in scope.
    with pytest.raises(ConfigError):
        compile_field_expression("x + y", names=("x",))


def test_syntax_error_message_names_expression():
    with pytest.raises(ConfigError, match="cos\\(x"):
        compile_field_expression("cos(x")
