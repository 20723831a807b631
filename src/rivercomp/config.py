"""Run configuration: JSON schema, validation, defaults, canonical echo.

A run is described by a flat JSON object (plus one nested "tolerances"
object).  Parsing is strict: unknown keys are errors, every value is
type- and range-checked with a message naming the key, and every module
precondition that can be checked before compute (harvest range, grid
Peclet, positivity of sampled fields) is checked here.  The steady,
eigen, sweep and verify modes analyse the folded model, so they need
mu1 == mu2.  The reaction form is no key: it follows the harvest
fractions (``RunConfig.reaction_form``).  One layering path puts
overrides on a config file, a figure preset or an echo alike, one
tolerance at a time (``parse_config``).

Nothing defaults silently.  Every value the parser fills in is recorded
in the "_defaulted" list, and the canonical echo written next to run
outputs materializes all values (including derived defaults such as dt
and the initial densities), so re-running from an echo reproduces the
run and re-echoes byte-identically.

Equal harvest fractions fold into the growth law (the "folded" form);
unequal ones keep the explicit harvest terms (the "raw" form).  Both
share one harvest fold (``_fold_harvest``, with mu = min(mu1, mu2)) and
so one dt cap: a given dt must lie in
(0, 0.9 / max r·(1 - min(mu1, mu2))], and the default is that cap or
0.1, whichever is smaller (``stepping.max_stable_dt``/``default_dt``).
The keys of the "tolerances" object are the fields of ``Tolerances``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError
from .grid import Grid, sample_expression
from .model import EffectiveParams, ModelParams, build_effective_params
from .operators import check_peclet
from .spectral import TOL_EIGEN, TOL_MARGINAL
from .steady import TOL_STEADY
from .stepping import EPS_SETTLE, default_dt, max_stable_dt

__all__ = ["Tolerances", "RunConfig", "parse_config", "MODES"]

MODES = ("simulate", "steady", "eigen", "sweep", "figure", "verify")
# The modes whose steady and invasion analysis is of the folded model.
_FOLDED_MODES = ("steady", "eigen", "sweep", "verify")

_TOL_DEFAULTS = {
    "steady": TOL_STEADY,
    "eigen": TOL_EIGEN,
    "marginal": TOL_MARGINAL,
    "settle": EPS_SETTLE,
    # "extinct" is derived from the folded capacity when not given.
}

# Canonical echo order; also the closed set of accepted top-level keys
# ("mu" is accepted as shorthand on input but echoed as mu1/mu2).
_ECHO_ORDER = (
    "mode",
    "figure",
    "d1",
    "d2",
    "alpha1",
    "alpha2",
    "mu1",
    "mu2",
    "r",
    "K",
    "a",
    "b",
    "dim",
    "n",
    "dt",
    "t_end",
    "u0",
    "v0",
    "snapshot_times",
    "samples",
    "points",
    "out_dir",
    "tolerances",
)
_TOP_KEYS = set(_ECHO_ORDER) | {"mu", "_defaulted"}


@dataclass(frozen=True)
class Tolerances:
    steady: float
    eigen: float
    marginal: float
    extinct: float
    settle: float


_TOL_KEYS = tuple(f.name for f in fields(Tolerances))
# The names a "_defaulted" list may hold: every key the parser fills in.
_DEFAULTABLE = set(_ECHO_ORDER) - {"figure", "tolerances"} | {f"tolerances.{k}" for k in _TOL_KEYS}


@dataclass
class RunConfig:
    mode: str
    params: ModelParams
    n: int
    dt: float
    t_end: float
    u0: float | str
    v0: float | str
    snapshot_times: tuple[float, ...]
    samples: int
    points: int
    out_dir: str
    figure: str | None
    tolerances: Tolerances
    defaulted: tuple[str, ...]

    @property
    def reaction_form(self) -> str:
        """The form the harvest fractions take: "folded" when equal, else "raw"."""
        return "folded" if self.params.equal_harvest else "raw"

    def grid(self) -> Grid:
        return Grid(self.params.dim, self.params.a, self.params.b, self.n)

    def effective(self, grid: Grid) -> EffectiveParams:
        return _fold_harvest(self.params, grid)

    def initial_fields(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        return _initial_values(self.u0, "u0", grid), _initial_values(self.v0, "v0", grid)

    def echo_dict(self) -> dict:
        d: dict = {
            "mode": self.mode,
            "d1": self.params.d1,
            "d2": self.params.d2,
            "alpha1": self.params.alpha1,
            "alpha2": self.params.alpha2,
            "mu1": self.params.mu1,
            "mu2": self.params.mu2,
            "r": self.params.r_expr,
            "K": self.params.K_expr,
            "a": self.params.a,
            "b": self.params.b,
            "dim": self.params.dim,
            "n": self.n,
            "dt": self.dt,
            "t_end": self.t_end,
            "u0": self.u0,
            "v0": self.v0,
            "snapshot_times": list(self.snapshot_times),
            "samples": self.samples,
            "points": self.points,
            "out_dir": self.out_dir,
            "tolerances": asdict(self.tolerances),
        }
        if self.figure is not None:
            d["figure"] = self.figure
        ordered = {k: d[k] for k in _ECHO_ORDER if k in d}
        ordered["_defaulted"] = list(self.defaulted)
        return ordered

    def echo_json(self) -> str:
        return json.dumps(self.echo_dict(), indent=2) + "\n"


def _fold_harvest(params: ModelParams, grid: Grid) -> EffectiveParams:
    """Sample r and K on ``grid`` and fold the smaller harvest fraction in.

    With equal fractions this is the model's harvest fold; with unequal
    ones (raw form) it still gives the binding net growth rate
    rr1 = r·(1 - min(mu1, mu2)) behind the dt cap, and the capacities
    behind the default densities and extinction threshold.
    """
    return build_effective_params(params, grid, mu=min(params.mu1, params.mu2))


# ---------------------------------------------------------------------
# value coercion helpers
# ---------------------------------------------------------------------


def _as_float(key: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return v


def _as_int(key: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _as_str(key: str, value: object) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _as_expr(key: str, value: object) -> str:
    """Coefficient expressions may be given as strings or plain numbers."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be an expression string or a number, got {value!r}")
    return repr(float(value))


def _initial_values(spec: float | str, key: str, grid: Grid) -> np.ndarray:
    if isinstance(spec, str):
        values = sample_expression(grid, spec)
    else:
        values = np.full(grid.size, float(spec))
    if np.any(values < 0.0):
        raise ConfigError(f"{key} must be nonnegative everywhere on the habitat")
    return values


# ---------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------


def _load_file(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object at top level")
    return data


def parse_config(
    source: str | Path | Mapping[str, object] | None = None,
    overrides: Mapping[str, object] | None = None,
) -> RunConfig:
    """Parse and fully validate a run configuration.

    The one layering path, for a file, a preset and an echo alike:
    ``source`` (a config file's path, a mapping of the same keys or
    None) is the base layer, and the non-None ``overrides`` (typically
    CLI flags) go on top key by key, a "tolerances" object one
    tolerance at a time.  Returns a RunConfig with every default
    materialized and listed in its ``defaulted`` tuple.  Every key the
    base's "_defaulted" entry lists is derived again unless an override
    sets it, so a derived default (dt, u0, v0, tolerances.extinct)
    follows the overrides it derives from, and an unchanged echo
    re-parses to the same echo.  An override's harvest form, mu or the
    pair mu1/mu2, replaces the base's.
    """
    base = _load_file(source) if isinstance(source, (str, Path)) else source or {}
    unknown = sorted(set(base) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    carried = base.get("_defaulted", [])
    if not isinstance(carried, list) or not all(isinstance(k, str) for k in carried):
        raise ConfigError("_defaulted must be a list of key names")
    unknown = sorted(set(carried) - _DEFAULTABLE)
    if unknown:
        raise ConfigError(f"_defaulted lists {unknown[0]!r}, which has no default")

    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    unknown = sorted(set(overrides) - (_TOP_KEYS - {"_defaulted"}))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    # Harvest fractions: a single "mu" is shorthand for equal fractions.
    for layer in (base, overrides):
        if "mu" in layer and ("mu1" in layer or "mu2" in layer):
            raise ConfigError("give either mu or the pair mu1/mu2, not both")

    given = set(overrides)
    if isinstance(overrides.get("tolerances"), dict):
        given.update(f"tolerances.{k}" for k in overrides["tolerances"])
    if "mu" in overrides:
        given.update(("mu1", "mu2"))
    defaulted = set(carried) - given
    # The base's defaults are derived again (mu1/mu2 default as a pair, so
    # an override of one keeps the base's other), an override's harvest
    # form replaces the base's, and the tolerances merge key by key.
    stale = defaulted - {"mu1", "mu2"}
    if "mu" in overrides:
        stale.update(("mu1", "mu2"))
    if "mu1" in overrides or "mu2" in overrides:
        stale.add("mu")
    merged = {k: v for k, v in base.items() if k not in stale and k != "_defaulted"}
    if isinstance(merged.get("tolerances"), dict):
        tolerances = merged["tolerances"].items()
        merged["tolerances"] = {k: v for k, v in tolerances if f"tolerances.{k}" not in stale}
        if isinstance(overrides.get("tolerances"), dict):
            overrides["tolerances"] = {**merged["tolerances"], **overrides["tolerances"]}
    merged.update(overrides)

    def take(key: str, default):
        if key in merged:
            return merged[key]
        defaulted.add(key)
        return default

    mode = _as_str("mode", take("mode", "simulate"))
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {', '.join(MODES)}; got {mode!r}")

    if ("mu1" in merged) != ("mu2" in merged):
        raise ConfigError("mu1 and mu2 must be given together")
    if "mu" in merged:
        mu1 = mu2 = _as_float("mu", merged["mu"])
    elif "mu1" in merged:
        mu1 = _as_float("mu1", merged["mu1"])
        mu2 = _as_float("mu2", merged["mu2"])
    else:
        mu1 = mu2 = 0.0
        defaulted.update(("mu1", "mu2"))

    d1 = _as_float("d1", take("d1", 1.0))
    d2 = _as_float("d2", take("d2", 1.0))
    alpha1 = _as_float("alpha1", take("alpha1", 0.0))
    alpha2 = _as_float("alpha2", take("alpha2", 0.0))
    a = _as_float("a", take("a", 0.0))
    b = _as_float("b", take("b", 1.0))
    dim = _as_int("dim", take("dim", 1))
    r_expr = _as_expr("r", take("r", "1"))
    k_raw = merged.get("K")
    if k_raw is None:
        defaulted.add("K")

    params = ModelParams(
        d1=d1,
        d2=d2,
        alpha1=alpha1,
        alpha2=alpha2,
        mu1=mu1,
        mu2=mu2,
        r_expr=r_expr,
        K_expr=_as_expr("K", k_raw) if k_raw is not None else None,
        a=a,
        b=b,
        dim=dim,
    )
    if mode in _FOLDED_MODES and not params.equal_harvest:
        raise ConfigError(
            f"mode {mode!r} analyses the folded model and needs equal harvest "
            "fractions; use simulate for mu1 != mu2"
        )

    n = _as_int("n", take("n", 256 if dim == 1 else 64))
    grid = Grid(dim, a, b, n)
    check_peclet(grid, d1, alpha1)
    check_peclet(grid, d2, alpha2)

    eff = _fold_harvest(params, grid)

    t_end = _as_float("t_end", take("t_end", 100.0))
    if t_end <= 0.0:
        raise ConfigError(f"t_end must be positive, got {t_end!r}")

    dt_cap = max_stable_dt(eff.rr1)
    if "dt" in merged:
        dt = _as_float("dt", merged["dt"])
        if not 0.0 < dt <= dt_cap:
            raise ConfigError(
                f"dt must lie in (0, {dt_cap!r}] to keep the reaction step "
                f"positivity-safe, got {dt!r}"
            )
    else:
        dt = default_dt(eff.rr1)
        defaulted.add("dt")

    default_density = 0.5 * float(np.min(eff.K1))
    u0_raw = take("u0", default_density)
    v0_raw = take("v0", default_density)
    u0 = u0_raw if isinstance(u0_raw, str) else _as_float("u0", u0_raw)
    v0 = v0_raw if isinstance(v0_raw, str) else _as_float("v0", v0_raw)
    _initial_values(u0, "u0", grid)
    _initial_values(v0, "v0", grid)

    snap_raw = take("snapshot_times", [])
    if not isinstance(snap_raw, list):
        raise ConfigError("snapshot_times must be a list of times")
    snapshot_times = tuple(sorted(_as_float("snapshot_times entry", t) for t in snap_raw))
    if snapshot_times and snapshot_times[0] < 0.0:
        raise ConfigError("snapshot_times must be nonnegative")
    if snapshot_times and snapshot_times[-1] > t_end:
        raise ConfigError(f"snapshot time {snapshot_times[-1]!r} lies beyond t_end {t_end!r}")

    samples = _as_int("samples", take("samples", 100))
    if samples < 2:
        raise ConfigError(f"samples must be at least 2, got {samples}")
    points = _as_int("points", take("points", 33))
    if points < 1:
        raise ConfigError(f"points must be positive, got {points}")
    out_dir = _as_str("out_dir", take("out_dir", "out"))

    figure = merged.get("figure")
    if figure is not None:
        figure = _as_str("figure", figure)

    tol_raw = take("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise ConfigError("tolerances must be an object")
    unknown = sorted(set(tol_raw) - set(_TOL_KEYS))
    if unknown:
        raise ConfigError(f"unknown tolerances key {unknown[0]!r}")
    tol_values: dict[str, float] = {}
    for key in _TOL_KEYS:
        if key in tol_raw:
            value = _as_float(f"tolerances.{key}", tol_raw[key])
        elif key == "extinct":
            # One thousandth of the folded capacity peak.
            value = 1e-3 * float(np.max(eff.K1))
            defaulted.add(f"tolerances.{key}")
        else:
            value = _TOL_DEFAULTS[key]
            defaulted.add(f"tolerances.{key}")
        if value <= 0.0:
            raise ConfigError(f"tolerances.{key} must be positive, got {value!r}")
        tol_values[key] = value
    # A wholly defaulted tolerances object is reported entry by entry.
    defaulted.discard("tolerances")

    return RunConfig(
        mode=mode,
        params=params,
        n=n,
        dt=dt,
        t_end=t_end,
        u0=u0,
        v0=v0,
        snapshot_times=snapshot_times,
        samples=samples,
        points=points,
        out_dir=out_dir,
        figure=figure,
        tolerances=Tolerances(**tol_values),
        defaulted=tuple(sorted(defaulted)),
    )
