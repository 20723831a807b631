"""Exception types shared across the package.

The CLI maps these onto process exit codes: configuration problems exit
with 2, solver failures with 3, and a flagged inconsistency between the
stability verdicts and the coexistence solver exits with 4.
"""

from __future__ import annotations


class RiverCompError(Exception):
    """Base class for all package errors."""


class ConfigError(RiverCompError):
    """Bad or inconsistent user input (config file, flags, parameters)."""


class GridResolutionError(ConfigError):
    """Grid too coarse for the requested advection strength.

    Carries the smallest cell count that restores a grid Peclet number
    below 2 so callers can report an actionable message.
    """

    def __init__(self, peclet: float, n_min: int):
        self.n_min = n_min
        super().__init__(
            f"grid Peclet number {peclet:.6g} >= 2; the off-diagonal sign "
            f"structure of the transport operator would be lost. "
            f"Use at least n = {n_min} cells per axis."
        )


class SolverError(RiverCompError):
    """A numerical routine failed to converge or hit an iteration cap."""


class AnomalyError(RiverCompError):
    """Internally inconsistent results that must not be silently accepted."""
