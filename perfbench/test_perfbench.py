"""Tests of the benchmark itself: reference check, span arithmetic, job
selection, metric names, and that its pipelines match the package's.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from rivercomp import cli, experiments, output  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- reference check ----------------------------------------------------------


def _perturbed(workload: str, key: str, path: tuple, rel: float) -> dict:
    obs = copy.deepcopy(REFERENCE[workload][key])
    target = obs
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = target[path[-1]] * (1.0 + rel) if target[path[-1]] else rel
    return obs


@pytest.mark.parametrize(
    "workload, key, path",
    [
        ("step1d", "fig1", ("norms", 1)),
        ("step1d", "fig8", ("masses", 0)),
        ("step2d", "fig17", ("norms", 0)),
        ("sweep", "mu=0.3", ("kappa", 5)),
        ("sweep", "mu=0.1", ("tau", 0)),
        ("verify", "weak/n=256", ("checks", "eigen_difference", "residual")),
        ("verify", "fast/n=1024", ("checks", "invasion_indices", "kappa")),
    ],
)
def test_reference_check_catches_perturbed_numbers(workload, key, path):
    ref = REFERENCE[workload][key]
    assert jobs.mismatches(workload, copy.deepcopy(ref), ref) == []
    assert jobs.mismatches(workload, _perturbed(workload, key, path, 1e-12), ref) == []
    assert jobs.mismatches(workload, _perturbed(workload, key, path, 1e-4), ref) != []


def test_reference_check_compares_verdicts_patterns_and_flags_exactly():
    step = copy.deepcopy(REFERENCE["step1d"]["fig8"])
    step["verdict"] = "Coexistence"
    assert jobs.mismatches("step1d", step, REFERENCE["step1d"]["fig8"])
    clamped = copy.deepcopy(REFERENCE["step2d"]["fig15"])
    clamped["clamp_events"] += 1
    assert jobs.mismatches("step2d", clamped, REFERENCE["step2d"]["fig15"])
    sweep = copy.deepcopy(REFERENCE["sweep"]["mu=0.3"])
    sweep["pattern"][0] = "Coexistence"
    assert jobs.mismatches("sweep", sweep, REFERENCE["sweep"]["mu=0.3"])
    window = copy.deepcopy(REFERENCE["sweep"]["mu=0.3"])
    window["window"] = [0.0006, 0.0007]
    assert jobs.mismatches("sweep", window, REFERENCE["sweep"]["mu=0.3"])
    verify = copy.deepcopy(REFERENCE["verify"]["slow/n=512"])
    verify["checks"]["drift_band"]["pass"] = False
    assert jobs.mismatches("verify", verify, REFERENCE["verify"]["slow/n=512"])


def test_reference_records_the_red_criteria_as_produced():
    assert REFERENCE["step1d"]["fig8"]["verdict"] == "Undecided"
    assert set(REFERENCE["sweep"]["mu=0.3"]["pattern"]) == {"VWins"}


# -- span arithmetic ------------------------------------------------------------


def test_self_times_subtract_direct_children_only():
    # root [0,10] > a [1,4] > b [2,3];  root > c [5,6]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    selfs = spans.self_times(parent, start, end, [True] * 4)
    assert selfs.tolist() == [6.0, 2.0, 1.0, 1.0]
    assert selfs.sum() == 10.0


def test_folded_span_stays_in_its_parents_self_time():
    names = ["bench.run", "linsolve.factorize", "splu", "steady.pair"]
    # run [0,10] > factorize [1,5] > splu [2,4];  run > pair [6,9] > splu [7,8]
    name_id = [0, 1, 2, 3, 2]
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 6.0, 7.0]
    end = [10.0, 5.0, 4.0, 9.0, 8.0]
    layers = spans.layer_spans(names, name_id, parent)
    assert layers.tolist() == ["bench.run", "linsolve.factorize", "", "steady.pair", "steady.splu"]
    selfs = spans.self_times(parent, start, end, layers != "")
    assert selfs.tolist() == [3.0, 4.0, 0.0, 2.0, 1.0]
    assert selfs.sum() == 10.0


def test_layer_self_times_add_up_to_the_traced_time():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(2000))

    def layer():
        tracer.span("linsolve.solve", leaf)
        tracer.span("splu", leaf)  # not under a steady span: folded
        return leaf()

    tracer.span(spans.SETUP_ROOT, layer)
    tracer.span(spans.RUN_ROOT, tracer.span, "steady.pair", lambda: tracer.span("splu", layer))
    metrics = spans.layer_metrics(tracer, rounds=1, overhead_s=0.0, clamp_events=0, output_bytes=0)
    total = metrics["trace.setup_s"] + metrics["trace.run_s"]
    assert metrics["steady.splu.count"] == 1.0
    assert metrics["linsolve.solve.count"] == 2.0
    assert spans.attributed_s(metrics) == pytest.approx(total, rel=1e-12)


def test_tracer_install_wraps_and_uninstall_restores():
    from rivercomp import linsolve, stepping

    original = stepping.Stepper.step, linsolve.Factorization.solve, experiments.transport_for
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert stepping.Stepper.step is not original[0]
        assert experiments.transport_for is not original[2]
    finally:
        tracer.uninstall()
    assert (stepping.Stepper.step, linsolve.Factorization.solve, experiments.transport_for) == original


# -- job selection ----------------------------------------------------------------


def _first_rounds(workload: str, seed: int, k: int = 3) -> list[list[str]]:
    gen = jobs.rounds(workload, seed)
    return [[job.key for job in next(gen)] for _ in range(k)]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_seed_selects_the_same_jobs_every_time(workload):
    menu = sorted(job.key for job in jobs.MENUS[workload])
    first = _first_rounds(workload, 7)
    assert first == _first_rounds(workload, 7)
    assert all(sorted(keys) == menu for keys in first)
    orders = {tuple(_first_rounds(workload, seed, 1)[0]) for seed in range(10)}
    assert len(orders) > 1


# -- names and declared metrics --------------------------------------------------

_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert all(_NAME.fullmatch(m["name"]) for m in declared)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(spans.PER_LAYER_METRICS)
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert tuple(names) == run.WORKLOAD_NAMES == tuple(jobs.MENUS)
    assert set(REFERENCE) == set(names)
    for workload, menu in jobs.MENUS.items():
        assert {job.key for job in menu} == set(REFERENCE[workload])


# -- pipelines match the package's own --------------------------------------------


def test_figure_job_writes_the_same_bundle_as_run_figure(tmp_path):
    job = jobs.Job("step1d", "fig13", {"n": 64, "t_end": 20.0})
    jobs.run(job, jobs.setup(job), tmp_path / "bench")
    cfg, traj, _, report = experiments.run_figure("fig13", {"n": 64, "t_end": 20.0})
    output.write_bundle(cfg, report, traj, out_dir=tmp_path / "lib")
    assert run.tree_digest(tmp_path / "bench") == run.tree_digest(tmp_path / "lib")


def test_sweep_job_writes_the_same_bundle_as_the_cli(tmp_path):
    overrides = dict(d1=0.002, d2=0.001, alpha1=0.001, mu=0.3, n=64, points=8)
    job = jobs.Job("sweep", "small", dict(overrides, mode="sweep"))
    jobs.run(job, jobs.setup(job), tmp_path / "bench")
    flags = [f"--{k}={v}" for k, v in overrides.items()]
    assert cli.main(["sweep", *flags, "--out-dir", str(tmp_path / "cli")]) == 0
    # The config echo records the output directory, so only the reports compare.
    report = (tmp_path / "bench" / "report.json").read_bytes()
    assert report == (tmp_path / "cli" / "report.json").read_bytes()


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
