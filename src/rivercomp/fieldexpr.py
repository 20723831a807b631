"""Closed expression grammar for spatial coefficient fields.

Habitat coefficients (growth rate, carrying capacity, initial data) are
given as text expressions over the cell-center coordinates.  The grammar
is deliberately small and closed: numeric literals, ``pi``, the
coordinates ``x`` (and ``y`` on 2-D grids), ``+``, ``-`` (binary and
unary), ``*``, parentheses, and the functions ``cos`` and ``sin``.
Nothing else parses (no division, no powers, no attribute access), so a
config file can never execute arbitrary code.
"""

from __future__ import annotations

import ast
import math
import operator
from collections.abc import Callable

import numpy as np

from .errors import ConfigError

__all__ = ["compile_field_expression"]

_FUNCTIONS = {"cos": np.cos, "sin": np.sin}
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply}
_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}


def compile_field_expression(
    text: str, names: tuple[str, ...] = ("x",)
) -> Callable[..., np.ndarray]:
    """Compile ``text`` into a function of the coordinate arrays, ``f(x)``
    or ``f(x, y)``, rejecting anything off-grammar.

    ``names`` lists the coordinate names in scope ("x", or "x" and "y").
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse field expression {text!r}: {exc.msg}") from None
    evaluate = _compile(tree.body, names, text)

    def field(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        value = evaluate({"pi": math.pi, "x": x, "y": y})
        # Constant expressions evaluate to a scalar; broadcast to the grid.
        return np.broadcast_to(np.asarray(value, dtype=float), np.shape(x)).copy()

    return field


def _compile(node: ast.AST, names: tuple[str, ...], text: str):
    """Check ``node`` against the grammar; return its evaluator, a function
    of the name environment."""
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ConfigError(
                f"operator {type(node.op).__name__!r} is not part of the field "
                f"grammar (expression {text!r}); only +, - and * are allowed"
            )
        op = _BINOPS[type(node.op)]
        left, right = _compile(node.left, names, text), _compile(node.right, names, text)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        if type(node.op) not in _UNARY:
            raise ConfigError(f"unary operator not allowed in field expression {text!r}")
        op, operand = _UNARY[type(node.op)], _compile(node.operand, names, text)
        return lambda env: op(operand(env))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ConfigError(
                f"only cos(...) and sin(...) may be called in a field "
                f"expression (got {ast.dump(node.func)} in {text!r})"
            )
        if len(node.args) != 1 or node.keywords:
            raise ConfigError(f"{node.func.id} takes exactly one argument in {text!r}")
        func, arg = _FUNCTIONS[node.func.id], _compile(node.args[0], names, text)
        return lambda env: func(arg(env))
    if isinstance(node, ast.Name):
        if node.id != "pi" and node.id not in names:
            allowed = ", ".join(names + ("pi",))
            raise ConfigError(
                f"unknown name {node.id!r} in field expression {text!r} "
                f"(allowed: {allowed})"
            )
        return lambda env: env[node.id]
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ConfigError(f"non-numeric literal in field expression {text!r}")
        value = float(node.value)
        return lambda env: value
    raise ConfigError(
        f"syntax {type(node).__name__!r} is not part of the field grammar "
        f"(expression {text!r})"
    )

