"""Finite-volume toolkit for two-species drift-diffusion competition
with proportional harvesting in heterogeneous habitats.

Core layers: conservative transport operators (`operators`), the folded
harvest model (`model`), semi-implicit time stepping and outcome
classification (`stepping`), steady states and their integral/band
diagnostics (`steady`), principal-eigenvalue stability analysis
(`spectral`), experiment orchestration (`experiments`), and strict
config/output plumbing (`config`, `output`, `cli`).  Import names from
those modules.  Importing the package loads every computational module;
`output` and `cli` load when first imported.
"""

from . import (
    config, errors, experiments, fieldexpr, grid, linsolve,
    model, operators, spectral, steady, stepping,
)

__version__ = "0.1.0"
