"""rivercomp benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload step1d --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

One single-threaded process imports the package from ``src/`` next to
this directory (child interpreters only time the import) and runs whole rounds of its workload's menu (every item,
in a seeded order) until ``--seconds`` have passed.  Every job's outputs
are checked against ``reference.json`` and its bundle must be
byte-identical across the rounds and runs of the same source tree.

``--trace 0`` reports set-up time, time to an answer, work per second
and peak memory.  ``--trace 1`` alternates untraced and traced rounds
and reports per-layer metrics of the traced ones (see ``spans.py``).
The last line of standard output is one JSON object with the result;
the lines before it give each metric by name with its unit, the failed
fraction and the run metadata.  Spans, results and scratch bundles go
to ``.bench_build/perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from calibrate import Calibrator
from spans import PER_LAYER_METRICS, RUN_ROOT, SETUP_ROOT, Tracer, attributed_s, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
# The menus in jobs.py; named here so a bad argument fails before any import.
WORKLOAD_NAMES = ("step1d", "step2d", "sweep", "verify")

# Each job is followed by a calibration point lasting this share of the
# job's time (see calibrate.py).
CALIBRATION_SHARE = 0.25
# Fresh interpreters timed importing the package; setup_s takes the median.
IMPORT_SAMPLES = 5
_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import rivercomp; print(time.perf_counter() - t)"
)

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
WORK_UNITS = {
    "step1d": "IMEX steps",
    "step2d": "IMEX steps",
    "sweep": "classified alpha2 points",
    "verify": "verification reports",
}


def _plain_call(name, fn, *args):
    return fn(*args)


def tree_digest(root: Path, pattern: str = "*") -> tuple[str, int, int]:
    """sha256 over the matching files' relative paths and bytes; their bytes and lines."""
    h = hashlib.sha256()
    size = lines = 0
    for path in sorted(p for p in root.rglob(pattern) if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        lines += data.count(b"\n")
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), size, lines


class Ledger:
    """Per-job timings, work and failures of one run.

    A calibration point is timed before the first job and after every
    job, so each job sits between two points.
    """

    def __init__(self, reference: dict, known_bundles: dict[str, str]):
        self.reference = reference
        self.bundles = dict(known_bundles)
        self.calibrator = Calibrator()
        self.last_point: float | None = None
        # (item key, set-up seconds, run seconds, point before, point after)
        self.records: list[tuple[str, float, float, float, float]] = []
        self.work: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def point(self, window: float) -> float:
        """A calibration point lasting at least ``window`` seconds."""
        self.last_point = self.calibrator.point(window)
        return self.last_point

    def run_round(
        self, jobs_module, round_jobs, out_root: Path, call=_plain_call
    ) -> tuple[float, int, int]:
        """Run one round.

        Returns the reference seconds its jobs spent in timed calls, their
        clamp events and the bytes of their bundles.
        """
        spent = 0.0
        clamps = written = 0
        before = self.last_point or self.point(CALIBRATION_SHARE)
        for job in round_jobs:
            self.attempted += 1
            out_dir = out_root / job.key.replace("/", "_")
            try:
                t0 = time.perf_counter()
                state = call(SETUP_ROOT, jobs_module.setup, job)
                t1 = time.perf_counter()
                observed, work = call(RUN_ROOT, jobs_module.run, job, state, out_dir)
                t2 = time.perf_counter()
            except Exception:  # a job that raises is a failed job; keep running
                traceback.print_exc()
                self.failures.append(f"{job.key}: raised")
                before = self.point(CALIBRATION_SHARE)
                continue
            after = self.point(CALIBRATION_SHARE * (t2 - t0))
            spent += (t2 - t1) * Calibrator.scale(before, after)
            problems = jobs_module.mismatches(
                job.workload, observed, self.reference[job.workload][job.key]
            )
            digest, size, _ = tree_digest(out_dir)
            shutil.rmtree(out_dir)
            if self.bundles.setdefault(job.key, digest) != digest:
                problems.append("bundle is not byte-identical to an earlier run of this source")
            if problems:
                self.failures.append(f"{job.key}: " + "; ".join(problems))
            else:
                self.records.append((job.key, t1 - t0, t2 - t1, before, after))
                self.work[job.key] = work
                clamps += observed.get("clamp_events", 0)
                written += size
            before = after
        return spent, clamps, written


def import_seconds(ledger: Ledger) -> list[tuple[float, float, float]]:
    """Import times in fresh interpreters, each between two calibration points."""
    samples = []
    before = ledger.point(0.0)
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        after = ledger.point(0.0)
        samples.append((float(done.stdout.strip().splitlines()[-1]), before, after))
        before = after
    return samples


def _item_medians(records, column: int, scaled: bool) -> dict[str, float]:
    by_item: defaultdict[str, list[float]] = defaultdict(list)
    for key, *times, before, after in records:
        by_item[key].append(times[column] * (Calibrator.scale(before, after) if scaled else 1.0))
    return {key: statistics.median(v) for key, v in by_item.items()}


def end_to_end(ledger: Ledger, imports) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics in reference seconds, and the raw seconds."""

    def seconds(scaled: bool) -> tuple[float, float]:
        imported = statistics.median(
            t * (Calibrator.scale(a, b) if scaled else 1.0) for t, a, b in imports
        )
        setup = imported + sum(_item_medians(ledger.records, 0, scaled).values())
        return setup, sum(_item_medians(ledger.records, 1, scaled).values())

    setup, run = seconds(scaled=True)
    raw_setup, raw_run = seconds(scaled=False)
    work = sum(ledger.work.values())
    values = {
        "setup_s": setup,
        "run_s": run,
        "work_per_s": work / run if run > 0.0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"raw_setup_s": raw_setup, "raw_run_s": raw_run}


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        sha = done.stdout.strip() or None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = None
    src_sha, _, src_lines = tree_digest(SRC, "*.py")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": src_sha,
        "src_lines": src_lines,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> int:
    if not (SRC / "rivercomp" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(f"benchmark needs {SRC}/rivercomp and {REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs
    import rivercomp

    if Path(rivercomp.__file__).resolve().parent != SRC / "rivercomp":
        print(f"imported rivercomp from {rivercomp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    src_sha = tree_digest(SRC, "*.py")[0]
    bundle_file = WORK / f"bundles-{src_sha[:16]}.json"
    known = json.loads(bundle_file.read_text()) if bundle_file.is_file() else {}
    ledger = Ledger(json.loads(REFERENCE.read_text()), known)
    out_root = WORK / f"out-{os.getpid()}"
    tracer = Tracer() if trace else None
    spent = {False: [], True: []}  # timed-call reference seconds per untraced / traced round
    clamps = written = 0  # over traced rounds
    imports = [] if trace else import_seconds(ledger)
    raw = None
    try:
        start = time.perf_counter()
        for round_jobs in jobs.rounds(workload, seed):
            traced = tracer is not None and len(spent[False]) > len(spent[True])
            if traced:
                tracer.install()
                try:
                    round_s, c, w = ledger.run_round(jobs, round_jobs, out_root, tracer.span)
                finally:
                    tracer.uninstall()
                spent[True].append(round_s)
                clamps += c
                written += w
            else:
                spent[False].append(ledger.run_round(jobs, round_jobs, out_root)[0])
            if time.perf_counter() - start >= seconds and (tracer is None or spent[True]):
                break
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    new = {k: v for k, v in ledger.bundles.items() if k not in known}
    if new:
        bundle_file.parent.mkdir(parents=True, exist_ok=True)
        tmp = bundle_file.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps({**known, **new}, indent=1, sort_keys=True))
        os.replace(tmp, bundle_file)

    failed = len(ledger.failures)
    for line in ledger.failures:
        print(f"FAILED {line}", file=sys.stderr)
    if tracer is None:
        values, raw = end_to_end(ledger, imports)
        units = dict(END_TO_END)
        print(
            f"{workload}: work unit = {WORK_UNITS[workload]}; {len(spent[False])} rounds; "
            f"seconds are reference seconds (calibrate.py); raw set-up "
            f"{raw['raw_setup_s']!r} s, raw run {raw['raw_run_s']!r} s"
        )
    else:
        traced_rounds = len(spent[True])
        overhead = statistics.fmean(spent[True]) - statistics.fmean(spent[False])
        values = layer_metrics(tracer, traced_rounds, overhead, clamps, written)
        units = dict(PER_LAYER_METRICS)
        tracer.write(WORK / f"trace-{workload}.npz")
        print(
            f"{workload}: {traced_rounds} traced rounds; per round, layer self times + "
            f"unattributed = {attributed_s(values)!r} s, traced set-up + run = "
            f"{values['trace.setup_s'] + values['trace.run_s']!r} s"
        )
    for name, value in values.items():
        print(f"{workload} {name} = {value!r} {units[name]}")
    print(f"{workload} failed_frac = {failed / max(ledger.attempted, 1)!r} ({failed}/{ledger.attempted})")
    meta = metadata(workload, seed, seconds, trace)
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    results = WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({"meta": meta, "result": result, "raw": raw}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Each workload in its own process (peak memory is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exited with {done.returncode}", file=sys.stderr)
            status = done.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    if status == 0:
        print(json.dumps(merged))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"--workload must be one of all, {', '.join(WORKLOAD_NAMES)}")
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
