"""Bit-stable output bundles: config echo, norm series, snapshots, report.

Every run directory gets `config.echo.json`, `report.json`, and (for
time-stepping runs) `norms.csv` plus one `snapshot_<t>.csv` per recorded
time, and no earlier run's norms or snapshots; an unwritable directory
is a configuration error.  Numbers are written with the shortest decimal
representation that round-trips exactly, files end with a newline, and
nothing here depends on wall-clock time or iteration order of unordered
containers, so identical configs yield byte-identical bundles.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Any

import numpy as np

from .config import RunConfig
from .errors import ConfigError, SolverError
from .grid import Grid
from .stepping import Trajectory

__all__ = [
    "format_float",
    "jsonable",
    "write_norms_csv",
    "write_snapshot_csv",
    "write_bundle",
]


def format_float(x: float) -> str:
    """Shortest decimal form that parses back to exactly the same float."""
    return repr(float(x))


def jsonable(value: Any) -> Any:
    """Recursively convert report values into plain JSON-friendly types."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="\n")


def _write_csv(path: Path, header: str, columns) -> None:
    """One CSV row per index of the equal-length ``columns``.

    Each column is formatted once, with ``format_float``, and the
    formatted columns are zipped into rows.
    """
    cells = [list(map(format_float, np.asarray(column).tolist())) for column in columns]
    _write_text(path, "\n".join([header, *map(",".join, zip(*cells))]) + "\n")


def write_norms_csv(path: Path, traj: Trajectory) -> None:
    _write_csv(
        path,
        "t,norm_u_inf,norm_v_inf,mass_u,mass_v",
        (traj.times, traj.norm_u_inf, traj.norm_v_inf, traj.mass_u, traj.mass_v),
    )


def write_snapshot_csv(path: Path, grid: Grid, u: np.ndarray, v: np.ndarray) -> None:
    coordinates = grid.coordinate_arrays()[: grid.dim]
    _write_csv(path, ",".join(["x", "y"][: grid.dim] + ["u", "v"]), (*coordinates, u, v))


def write_bundle(
    cfg: RunConfig,
    report: dict,
    traj: Trajectory | None = None,
    out_dir: str | Path | None = None,
) -> Path:
    """Write a run directory, once the report passes as strict JSON; returns its path."""
    try:
        report_text = json.dumps(jsonable(report), indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise SolverError("the report holds a NaN or an infinity: not strict JSON") from None
    run_dir = Path(out_dir if out_dir is not None else cfg.out_dir)
    try:
        _write_text(run_dir / "config.echo.json", cfg.echo_json())
        for path in run_dir.iterdir():  # an earlier run's norms and snapshots
            if re.fullmatch(r"norms\.csv|snapshot_\d+(\.\d+)?(e[-+]\d+)?\.csv", path.name):
                path.unlink()
        if traj is not None:
            write_norms_csv(run_dir / "norms.csv", traj)
            for t in sorted(traj.snapshots):
                u, v = traj.snapshots[t]
                write_snapshot_csv(run_dir / f"snapshot_{format_float(t)}.csv", traj.grid, u, v)
        _write_text(run_dir / "report.json", report_text)
    except OSError as exc:
        raise ConfigError(f"cannot write the output directory {str(run_dir)!r}: {exc}") from None
    return run_dir
