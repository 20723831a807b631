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

import numpy as np

from .errors import ConfigError

__all__ = ["compile_field_expression", "FieldExpression"]

_FUNCTIONS = {"cos": np.cos, "sin": np.sin}
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply}


class FieldExpression:
    """A compiled coefficient expression, callable on coordinate arrays."""

    def __init__(self, text: str, names: tuple[str, ...]):
        self.text = text
        self.names = names
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as exc:
            raise ConfigError(f"cannot parse field expression {text!r}: {exc.msg}") from None
        _validate(tree.body, names, text)
        self._tree = tree.body

    def __call__(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        env: dict[str, np.ndarray | float] = {"pi": math.pi, "x": x}
        if y is not None:
            env["y"] = y
        value = _evaluate(self._tree, env)
        # Constant expressions evaluate to a scalar; broadcast to the grid.
        return np.broadcast_to(np.asarray(value, dtype=float), np.shape(x)).copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FieldExpression({self.text!r})"


def compile_field_expression(text: str, names: tuple[str, ...] = ("x",)) -> FieldExpression:
    """Compile ``text`` into a callable, rejecting anything off-grammar.

    ``names`` lists the coordinate names in scope ("x", or "x" and "y").
    """
    return FieldExpression(text, names)


def _validate(node: ast.AST, names: tuple[str, ...], text: str) -> None:
    if isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ConfigError(
                f"operator {type(node.op).__name__!r} is not part of the field "
                f"grammar (expression {text!r}); only +, - and * are allowed"
            )
        _validate(node.left, names, text)
        _validate(node.right, names, text)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ConfigError(f"unary operator not allowed in field expression {text!r}")
        _validate(node.operand, names, text)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ConfigError(
                f"only cos(...) and sin(...) may be called in a field "
                f"expression (got {ast.dump(node.func)} in {text!r})"
            )
        if len(node.args) != 1 or node.keywords:
            raise ConfigError(f"{node.func.id} takes exactly one argument in {text!r}")
        _validate(node.args[0], names, text)
    elif isinstance(node, ast.Name):
        if node.id != "pi" and node.id not in names:
            allowed = ", ".join(names + ("pi",))
            raise ConfigError(
                f"unknown name {node.id!r} in field expression {text!r} "
                f"(allowed: {allowed})"
            )
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ConfigError(f"non-numeric literal in field expression {text!r}")
    else:
        raise ConfigError(
            f"syntax {type(node).__name__!r} is not part of the field grammar "
            f"(expression {text!r})"
        )


def _evaluate(node: ast.AST, env: dict) -> np.ndarray | float:
    if isinstance(node, ast.BinOp):
        return _BINOPS[type(node.op)](_evaluate(node.left, env), _evaluate(node.right, env))
    if isinstance(node, ast.UnaryOp):
        value = _evaluate(node.operand, env)
        return -value if isinstance(node.op, ast.USub) else +value
    if isinstance(node, ast.Call):
        return _FUNCTIONS[node.func.id](_evaluate(node.args[0], env))  # type: ignore[attr-defined]
    if isinstance(node, ast.Name):
        if node.id not in env:
            raise ConfigError(f"coordinate {node.id!r} is not available on this grid")
        return env[node.id]
    if isinstance(node, ast.Constant):
        return float(node.value)
    raise AssertionError(f"unvalidated node {node!r}")  # pragma: no cover
