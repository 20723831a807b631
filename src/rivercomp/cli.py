"""Command-line entry point.

One command with subcommands: simulate, steady, eigen, sweep, figure,
verify.  Every config key has a flag (``--tol-<name>`` sets
``tolerances.<name>``); flags override config-file values key by key, so
a ``--tol-<name>`` keeps the file's other tolerances.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(including verification runs with failing checks), 4 anomaly gate.
Errors emit one JSON record on stderr for scripting, and nothing else does.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import Tolerances, parse_config
from .errors import AnomalyError, ConfigError, RiverCompError, SolverError
from .experiments import (
    eigen_report,
    run_figure,
    run_verification,
    simulate_report,
    simulate_run,
    steady_report,
    sweep_alpha2,
    sweep_transitions,
)
from .output import write_bundle

__all__ = ["main"]


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _number_or_expression(text: str) -> float | str:
    """A float when ``text`` parses as one, else the expression text itself."""
    try:
        return float(text)
    except ValueError:
        return text


def _glue_dash_values(argv: list[str]) -> list[str]:
    """Each ``--flag -x+2`` as ``--flag=-x+2``: argparse takes a value that
    starts with "-" for an option unless it matches its negative-number
    pattern, which has no exponent.  "--" tokens and ``-h`` stay options."""
    out: list[str] = []
    for token in argv:
        value = token[:1] == "-" and token[:2] != "--" and token != "-h"
        if value and out and out[-1][:2] == "--" and len(out[-1]) > 2 and "=" not in out[-1]:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None, help="JSON config file")
    m = sub.add_argument_group("model parameters")
    m.add_argument("--d1", type=float, help="diffusion rate of species 1")
    m.add_argument("--d2", type=float, help="diffusion rate of species 2")
    m.add_argument("--alpha1", type=float, help="drift rate of species 1")
    m.add_argument("--alpha2", type=float, help="drift rate of species 2")
    m.add_argument("--mu", type=float, help="harvest fraction for both species")
    m.add_argument("--mu1", type=float, help="harvest fraction of species 1")
    m.add_argument("--mu2", type=float, help="harvest fraction of species 2")
    m.add_argument("--r", help="growth-rate expression in x[,y]")
    m.add_argument("--K", help="carrying-capacity expression in x[,y]")
    m.add_argument("--a", type=float, help="habitat left endpoint")
    m.add_argument("--b", type=float, help="habitat right endpoint")
    m.add_argument("--dim", type=int, choices=(1, 2), help="habitat dimension")
    d = sub.add_argument_group("discretization and run")
    d.add_argument("--n", type=int, help="cells per axis")
    d.add_argument("--dt", type=float, help="time step")
    d.add_argument("--t-end", dest="t_end", type=float, help="final time")
    d.add_argument(
        "--u0", type=_number_or_expression, help="initial density of species 1 (number or expression)"
    )
    d.add_argument(
        "--v0", type=_number_or_expression, help="initial density of species 2 (number or expression)"
    )
    d.add_argument(
        "--snapshot-times",
        dest="snapshot_times",
        type=_comma_floats,
        help="comma-separated times at which to write full fields",
    )
    d.add_argument("--samples", type=int, help="number of norm samples over the run")
    d.add_argument("--points", type=int, help="sweep resolution")
    d.add_argument("--out-dir", dest="out_dir", help="output directory")
    t = sub.add_argument_group("tolerances")
    for f in fields(Tolerances):
        t.add_argument(
            f"--tol-{f.name}", dest=f"tol_{f.name}", type=float, help=f"sets tolerances.{f.name}"
        )


# Dests that name the run, not a config key; every other dest is one.
_NOT_CONFIG = ("command", "config", "figure")


def _overrides_from(args: argparse.Namespace) -> dict:
    """Config overrides from the flags given; ``tol_<name>`` goes to ``tolerances``."""
    overrides: dict = {}
    tol: dict = {}
    for key, value in vars(args).items():
        if value is None or key in _NOT_CONFIG:
            continue
        if key.startswith("tol_"):
            tol[key.removeprefix("tol_")] = value
        else:
            overrides[key] = value
    if tol:
        overrides["tolerances"] = tol
    return overrides


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rivercomp",
        description=(
            "Finite-volume simulator and analysis toolkit for two competing "
            "populations drifting and diffusing through a heterogeneous habitat "
            "under proportional harvesting"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, brief in (
        ("simulate", "integrate the two-species system and classify the outcome"),
        ("steady", "solve single-species and coexistence steady states"),
        ("eigen", "invasion stability indices of both lone-species states"),
        ("sweep", "walk species 2's drift rate across the admissible range"),
        ("verify", "run the steady-state identity and band check suite"),
    ):
        sub = subs.add_parser(name, help=brief)
        _add_common_flags(sub)
    fig = subs.add_parser("figure", help="run a named preset from the built-in catalog")
    fig.add_argument("figure", help="preset id, e.g. fig1")
    _add_common_flags(fig)
    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    record = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


def _dispatch(args: argparse.Namespace) -> int:
    overrides = _overrides_from(args)

    if args.command == "figure":
        if args.config is not None:
            raise ConfigError(
                "figure presets carry their own parameters; use flags, not --config, to override"
            )
        cfg, traj, outcome, report = run_figure(args.figure, overrides)
        run_dir = write_bundle(cfg, report, traj=traj)
        print(f"{args.figure}: outcome {outcome.verdict.value} -> {run_dir}")
        return 0

    overrides["mode"] = args.command
    cfg = parse_config(args.config, overrides)

    if args.command == "simulate":
        traj, outcome = simulate_run(cfg)
        run_dir = write_bundle(cfg, simulate_report(traj, outcome), traj=traj)
        print(f"outcome {outcome.verdict.value} -> {run_dir}")
        return 0

    if args.command == "steady":
        report = steady_report(cfg)
        run_dir = write_bundle(cfg, report)
        print(f"steady states solved -> {run_dir}")
        return 0

    if args.command == "eigen":
        report = eigen_report(cfg)
        run_dir = write_bundle(cfg, report)
        print(
            "stability indices: u-state "
            f"{report['u_state']['stability_index']!r} ({report['u_state']['verdict']}), "
            f"v-state {report['v_state']['stability_index']!r} "
            f"({report['v_state']['verdict']}) -> {run_dir}"
        )
        return 0

    if args.command == "sweep":
        result = sweep_alpha2(cfg)
        report = {
            "omega1": result.omega1,
            "range": [result.lo, result.hi],
            "window": list(result.window) if result.window else None,
            "epsilon1": result.epsilon1,
            "epsilon2": result.epsilon2,
            "pattern": result.verdict_pattern(),
            "transitions": [list(t) for t in sweep_transitions(result)],
            "anomalies": result.anomalies,
            "points": result.points,
            "edge_points": result.edge_points,
        }
        run_dir = write_bundle(cfg, report)
        if result.anomalies:
            raise AnomalyError("; ".join(result.anomalies))
        window = "none" if result.window is None else f"[{result.window[0]!r}, {result.window[1]!r}]"
        print(f"coexistence window {window} -> {run_dir}")
        return 0

    if args.command == "verify":
        report = run_verification(cfg)
        run_dir = write_bundle(cfg, report)
        failed = [name for name, c in report["checks"].items() if not c["pass"]]
        for name, c in report["checks"].items():
            status = "skip" if c.get("skipped") else ("pass" if c["pass"] else "FAIL")
            print(f"{status:>4}  {name}")
        if failed:
            _emit_error("verification", SolverError(f"failed checks: {', '.join(failed)}"))
            return 3
        print(f"all checks pass -> {run_dir}")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_glue_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        with np.errstate(all="ignore"):  # stderr holds the JSON record alone
            return _dispatch(args)
    except AnomalyError as exc:
        _emit_error("anomaly", exc)
        return 4
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    except RiverCompError as exc:
        _emit_error("numerical", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
