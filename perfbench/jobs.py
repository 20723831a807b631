"""Workload menus, seeded job selection, job pipelines and the reference check.

Each workload is a menu of jobs.  A job has set-up calls (config parse,
grid, effective parameters, operators, stepper factorizations) and timed
calls (the computation plus writing the bundle the CLI would write).
Every job passes only model/grid parameters, ``n``, ``t_end`` and
``points``; every other option keeps its default.

Library functions are looked up on their modules at call time, so the
tracer's wrappers (see ``spans.py``) see every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from rivercomp import config, experiments, operators, output, stepping

# Criterion-6 sweep family; mu varies over the menu.
_SWEEP_FAMILY = dict(d1=0.002, d2=0.001, alpha1=0.001, n=256, points=33)
# Verification families: the weak-harvest, slow-movement and
# fast-contrast parameter sets of the figure presets.
_VERIFY_FAMILIES = {
    "weak": dict(d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04, mu=0.009),
    "slow": dict(d1=0.002, d2=0.001, alpha1=0.001, alpha2=0.0006, mu=0.3),
    "fast": dict(d1=3.0, d2=0.8, alpha1=0.7, alpha2=0.03, mu=0.1),
}

# Relative tolerance of the reference check, applied to each quantity's
# scale.  Loose enough for rounding-level changes (a structured 2-D solve
# differs from splu near 1e-13; Newton stops at a 1e-10 residual), tight
# enough that any change of algorithm or parameters shows.
RTOL = 1e-6


@dataclass(frozen=True)
class Job:
    workload: str
    key: str
    overrides: dict


def _menu() -> dict[str, list[Job]]:
    step1d = [
        Job("step1d", fig, {"n": 256, "t_end": 2000.0}) for fig in ("fig1", "fig6", "fig8", "fig13")
    ]
    step2d = [Job("step2d", fig, {"t_end": 500.0}) for fig in ("fig15", "fig16", "fig17")]
    sweep = [
        Job("sweep", f"mu={mu}", dict(_SWEEP_FAMILY, mode="sweep", mu=mu))
        for mu in (0.1, 0.2, 0.3, 0.5, 0.7)
    ]
    verify = [
        Job("verify", f"{family}/n={n}", dict(params, mode="verify", n=n))
        for family, params in _VERIFY_FAMILIES.items()
        for n in (128, 256, 512, 1024)
    ]
    return {"step1d": step1d, "step2d": step2d, "sweep": sweep, "verify": verify}


MENUS = _menu()


def rounds(workload: str, seed: int):
    """Endless seeded rounds; each round is the whole menu in a seeded order.

    Every round holds every menu item, so runs of different seeds measure
    the same work and differ only in the order the jobs run.
    """
    rng = random.Random(f"{workload}:{seed}")
    menu = MENUS[workload]
    while True:
        yield rng.sample(menu, len(menu))


# ---------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------


def setup(job: Job):
    """The job's set-up calls; returns the state its timed calls need."""
    if job.workload in ("step1d", "step2d"):
        cfg = experiments.preset_config(job.key, job.overrides)
        grid = cfg.grid()
        eff = cfg.effective(grid)
        p = cfg.params
        op1 = operators.transport_for(grid, p.d1, p.alpha1)
        op2 = operators.transport_for(grid, p.d2, p.alpha2)
        stepper = stepping.Stepper(op1, op2, p, eff, dt=cfg.dt, form=cfg.reaction_form)
        return cfg, grid, stepper
    return (config.parse_config(overrides=job.overrides),)


def run(job: Job, state, out_dir) -> tuple[dict, int]:
    """The job's timed calls, ending with its bundle in ``out_dir``.

    Returns the observations the reference check compares and the work
    done: IMEX steps, classified sweep points, or verification reports.
    """
    if job.workload in ("step1d", "step2d"):
        return _run_figure(job, *state, out_dir)
    (cfg,) = state
    if job.workload == "sweep":
        return _run_sweep(cfg, out_dir)
    report = experiments.run_verification(cfg)
    output.write_bundle(cfg, report, out_dir=out_dir)
    return {"checks": output.jsonable(report["checks"])}, 1


def _run_figure(job: Job, cfg, grid, stepper, out_dir) -> tuple[dict, int]:
    # The `rivercomp figure` pipeline (run_figure) with its set-up split off.
    u0, v0 = cfg.initial_fields(grid)
    traj = stepping.integrate(
        stepper, u0, v0, cfg.t_end, n_samples=cfg.samples, snapshot_times=cfg.snapshot_times
    )
    outcome = stepping.classify_outcome(
        traj, eps_extinct=cfg.tolerances.extinct, eps_settle=cfg.tolerances.settle
    )
    report = experiments.simulate_report(traj, outcome)
    expected = experiments.PRESETS[job.key].expected
    report["figure"] = job.key
    report["expected"] = expected.value if expected is not None else None
    report["matches_expected"] = None if expected is None else outcome.verdict == expected
    output.write_bundle(cfg, report, traj, out_dir=out_dir)
    observed = {
        "verdict": outcome.verdict.value,
        "norms": [outcome.final_norm_u, outcome.final_norm_v],
        "masses": [float(traj.mass_u[-1]), float(traj.mass_v[-1])],
        "clamp_events": traj.clamp_events,
    }
    return observed, round(float(traj.times[-1]) / traj.dt)


def _run_sweep(cfg, out_dir) -> tuple[dict, int]:
    # The `rivercomp sweep` pipeline: sweep, then the CLI's report.
    result = experiments.sweep_alpha2(cfg)
    report = {
        "omega1": result.omega1,
        "range": [result.lo, result.hi],
        "window": list(result.window) if result.window else None,
        "epsilon1": result.epsilon1,
        "epsilon2": result.epsilon2,
        "pattern": result.verdict_pattern(),
        "transitions": [list(t) for t in experiments.sweep_transitions(result)],
        "anomalies": result.anomalies,
        "points": result.points,
        "edge_points": result.edge_points,
    }
    output.write_bundle(cfg, report, out_dir=out_dir)
    points = result.points + result.edge_points
    observed = {
        "pattern": [p.verdict.value for p in points],
        "kappa": [p.kappa for p in points],
        "tau": [p.tau for p in points],
        "window": list(result.window) if result.window else None,
        "range": [result.lo, result.hi],
    }
    return observed, len(points)


# ---------------------------------------------------------------------
# reference check
# ---------------------------------------------------------------------


def _close(name: str, got, ref, scale: float) -> list[str]:
    if ref is None or got is None:
        return [] if ref is got else [f"{name}: {got!r} != reference {ref!r}"]
    if len(got) != len(ref):
        return [f"{name}: {len(got)} values, reference has {len(ref)}"]
    return [
        f"{name}[{i}]: {g!r} differs from reference {r!r} beyond {RTOL:g} x scale {scale!r}"
        for i, (g, r) in enumerate(zip(got, ref))
        if g != r and not (math.isfinite(g) and abs(g - r) <= RTOL * scale)
    ]


def _scale(*groups) -> float:
    return max((abs(v) for group in groups for v in group), default=0.0)


def _compare_tree(name: str, got, ref) -> list[str]:
    """Verification reports: flags, strings and ints exactly; floats by RTOL.

    Each float is its own quantity, so its scale is its reference value.
    """
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(got) != set(ref):
            return [f"{name}: keys {sorted(got)} != reference {sorted(ref)}"]
        return [m for k in ref for m in _compare_tree(f"{name}.{k}", got[k], ref[k])]
    if isinstance(ref, list) and isinstance(got, list):
        if len(got) != len(ref):
            return [f"{name}: {len(got)} entries, reference has {len(ref)}"]
        return [m for i, (g, r) in enumerate(zip(got, ref)) for m in _compare_tree(f"{name}[{i}]", g, r)]
    if isinstance(ref, float) and isinstance(got, float):
        return _close(name, [got], [ref], abs(ref))
    if type(got) is not type(ref) or got != ref:
        return [f"{name}: {got!r} != reference {ref!r}"]
    return []


def mismatches(workload: str, got: dict, ref: dict) -> list[str]:
    """Differences between a job's observations and its stored reference."""
    if workload in ("step1d", "step2d"):
        out = [] if got["verdict"] == ref["verdict"] else [
            f"verdict {got['verdict']} != reference {ref['verdict']}"
        ]
        if got["clamp_events"] != ref["clamp_events"]:
            out.append(f"clamp_events {got['clamp_events']} != reference {ref['clamp_events']}")
        out += _close("norms", got["norms"], ref["norms"], _scale(ref["norms"]))
        out += _close("masses", got["masses"], ref["masses"], _scale(ref["masses"]))
        return out
    if workload == "sweep":
        out = [] if got["pattern"] == ref["pattern"] else [
            f"verdict pattern {got['pattern']} != reference {ref['pattern']}"
        ]
        indices = _scale(ref["kappa"], ref["tau"])
        out += _close("kappa", got["kappa"], ref["kappa"], indices)
        out += _close("tau", got["tau"], ref["tau"], indices)
        width = ref["range"][1] - ref["range"][0]
        out += _close("window", got["window"], ref["window"], width)
        out += _close("range", got["range"], ref["range"], width)
        return out
    return _compare_tree("checks", got["checks"], ref["checks"])
