"""Model parameters, the harvesting transform, and movement-regime tests.

Two competing species share logistic growth r(x)·(1 - (u+v)/K(x)) and are
removed at per-capita rates mu1·r, mu2·r.  Each species moves with its own
diffusion d_i and downstream drift alpha_i under no-flux boundaries.

When both harvest fractions are equal (mu1 = mu2 = mu), the loss term
folds into the growth law exactly: with r1 = 1 - mu and K1 = K·r1 the
dynamics are those of the harvest-free system with growth r·r1 and
capacity K1.  ``build_effective_params`` performs that fold; ``reaction``
and ``raw_reaction`` evaluate the two algebraically identical forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import Field, Grid, sample_expression

__all__ = [
    "ModelParams",
    "EffectiveParams",
    "RegimeReport",
    "build_effective_params",
    "reaction",
    "raw_reaction",
    "classify_regime",
]

_DEFAULT_K = {1: "2 + cos(pi*x)", 2: "2 + cos(pi*x)*cos(pi*y)"}


@dataclass(frozen=True)
class ModelParams:
    """Movement, harvesting and habitat description for the two species."""

    d1: float
    d2: float
    alpha1: float
    alpha2: float
    mu1: float
    mu2: float
    r_expr: str = "1"
    K_expr: str | None = None  # None picks the dimension default
    a: float = 0.0
    b: float = 1.0
    dim: int = 1

    def __post_init__(self) -> None:
        if min(self.d1, self.d2) <= 0.0:
            raise ConfigError(f"diffusion rates must be positive (d1={self.d1}, d2={self.d2})")
        for name, mu in (("mu1", self.mu1), ("mu2", self.mu2)):
            if not 0.0 <= mu < 1.0:
                raise ConfigError(
                    f"{name}={mu} is outside [0, 1); a harvest fraction of 1 or "
                    f"more removes the entire growth"
                )
        if not self.b > self.a:
            raise ConfigError(f"empty domain: [{self.a}, {self.b}]")
        if self.dim not in (1, 2):
            raise ConfigError(f"dim must be 1 or 2, got {self.dim}")
        if self.K_expr is None:
            object.__setattr__(self, "K_expr", _DEFAULT_K[self.dim])

    @property
    def equal_harvest(self) -> bool:
        return self.mu1 == self.mu2


@dataclass(frozen=True)
class EffectiveParams:
    """Harvest-folded coefficients sampled on a grid (equal harvesting only)."""

    mu: float
    r1: float  # 1 - mu, exact
    r: Field  # growth rate r(x)
    K: Field  # raw carrying capacity K(x)
    K1: Field  # folded capacity K(x) * r1
    rr1: Field  # folded growth r(x) * r1

    @property
    def grid(self) -> Grid:
        return self.r.grid


@dataclass(frozen=True)
class RegimeReport:
    """The two drift-to-diffusion ratios and which one dominates."""

    ratio1: float  # alpha1 / d1
    ratio2: float  # alpha2 / d2
    holds_c1: bool  # ratio1 >= ratio2


def build_effective_params(params: ModelParams, grid: Grid, mu: float | None = None) -> EffectiveParams:
    """Sample r and K on ``grid`` and fold the harvest fraction ``mu`` in.

    ``mu`` defaults to the common harvest fraction of ``params`` and must
    lie in [0, 1).  r1 = 1 - mu is exact; K1 is K scaled by r1 pointwise.
    """
    if mu is None:
        if not params.equal_harvest:
            raise ConfigError(
                "the harvest fold needs a single fraction; mu1 != mu2 here, "
                "pass mu explicitly or integrate the raw form"
            )
        mu = params.mu1
    if not 0.0 <= mu < 1.0:
        raise ConfigError(
            f"mu={mu} is outside [0, 1); a harvest fraction of 1 or more "
            f"removes the entire growth"
        )
    if grid.dim != params.dim:
        raise ConfigError(f"grid dimension {grid.dim} != model dimension {params.dim}")
    r = sample_expression(grid, params.r_expr)
    K = sample_expression(grid, params.K_expr)
    if np.any(r.values <= 0.0):
        raise ConfigError(f"growth rate {params.r_expr!r} must be positive on the habitat")
    if np.any(K.values <= 0.0):
        raise ConfigError(f"carrying capacity {params.K_expr!r} must be positive on the habitat")
    r1 = 1.0 - mu
    return EffectiveParams(
        mu=mu,
        r1=r1,
        r=r,
        K=K,
        K1=Field(grid, K.values * r1),
        rr1=Field(grid, r.values * r1),
    )


def reaction(u: np.ndarray, v: np.ndarray, eff: EffectiveParams) -> np.ndarray:
    """Harvest-folded per-cell growth of u:  r·r1·u·(1 - (u+v)/K1)."""
    return eff.rr1.values * u * (1.0 - (u + v) / eff.K1.values)


def raw_reaction(
    u: np.ndarray,
    v: np.ndarray,
    r: np.ndarray,
    K: np.ndarray,
    mu: float,
) -> np.ndarray:
    """Unfolded growth of u:  r·u·(1 - (u+v)/K) - mu·r·u.

    Kept as the literal two-term form so it can serve as an independent
    cross-check of ``reaction`` (the two agree to rounding).
    """
    return r * u * (1.0 - (u + v) / K) - mu * r * u


def classify_regime(params: ModelParams) -> RegimeReport:
    """Compare the two drift-to-diffusion ratios; ties land on ``holds_c1``."""
    ratio1 = params.alpha1 / params.d1
    ratio2 = params.alpha2 / params.d2
    return RegimeReport(ratio1=ratio1, ratio2=ratio2, holds_c1=ratio1 >= ratio2)
