"""Check that two source trees give byte-identical command-line runs.

    python tools/compare_bundles.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory (the one that holds ``rivercomp/``)
or a tree root that holds one.  Every run of a fixed matrix of
``python -m rivercomp.cli`` commands goes once against each tree, in a
fresh temporary working directory of its own.  Then every file the run
wrote, its stdout, its stderr and its exit code are compared between the
two trees.  Each difference is printed; the exit code is 1 if there is
any, 0 if there is none and 2 on a usage error.

For a differing ``.json`` or ``.csv`` bundle file the drift is stated:
the largest change of its numbers relative to the file's scale (the
largest magnitude among the parent's numbers in it) and relative to the
scale of the number's own quantity (its CSV column, or its JSON key with
list positions dropped), naming that quantity.  Every non-numeric
difference is printed as well: strings, flags, nulls, integers (counts
and sizes compare exactly), keys, columns and lengths.

The matrix: ``figure`` on every preset and fig17 at ``--t-end 5000``
(the symmetrized step solve, in 1-D and 2-D), and fig17 with ``--mu
0.01`` to t 5, snapshots at 0 and 2.5 (a flag's harvest form replacing
a preset's); ``simulate`` in raw form
with mu1 != mu2, a drift-dominated ``simulate`` in 1-D (the banded
step solve) and in 2-D (the modal-banded one), a 2-D ``simulate`` whose
symmetrizer spread, 8.28, lies just inside the limit of 10 (the
symmetrized 2-D solve near its edge), and a ``simulate`` on the
slow family at dt 1.28 from u0 = v0 = 1.5, whose explicit half
overshoots so that the clamp fires (66 clamp events in its report),
the same start and dt on a drift-dominated family (the banded step
solve, in place, with 57 clamp events),
a ``simulate`` on the weak family with the two species' movement
rates swapped (n 64 to t 2000, which ends ``UWins``) and one from
u0 = v0 = 0 (n 16 to t 1, which ends ``BothExtinct``);
``steady`` and ``eigen`` in 1-D and 2-D, ``steady`` at a steady
tolerance of 1e-14 (whose lone states fall back from Newton to the
march), ``steady`` runs that find a pair in 1-D (n 64 and n 1024, the
second flagged near-singular) and 2-D, and ``eigen`` at an eigen
tolerance of 1e-6;
``sweep`` on the criterion-6 family at mu 0.3, mu 0.997 and
``K="1 + x"``, and on its narrow sliver (n 64, 120 points, mu 0.997,
marginal tolerance 1e-9: the one sweep with a found window, edge probes
and a pair); ``verify`` on the weak and fast families at n 128, 256, 512
and 1024, on the weak family at n 128 with constant capacity ``--K 1``
(drift keeps the lone state off it, so both capacity-gap integrals are
positive), on the slow family at n 1024, on the weak family at n 130
with r peaked mid-river (once with dt defaulted, once given at the fine
grid's default, which lies above the halved grid's dt cap: dt does not
enter the halved grid), on the weak family at n 129 (odd, so no halved
grid: the two-grid comparison is skipped with a note), on the weak
family in 2-D (which skips the four 1-D checks) and on the symmetric
family at n 64 (which finds a pair on both grids and compares the
identity residuals across them) and on the narrow sliver at alpha2
7.314e-4, inside its window (an asymmetric pair, whose identity
residuals are not exact zeros): 50 runs, a few minutes on a 2-core
machine.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

WEAK = ["--d1", "0.08", "--d2", "0.07", "--alpha1", "0.05", "--alpha2", "0.04", "--mu", "0.009"]
FAST = ["--d1", "3.0", "--d2", "0.8", "--alpha1", "0.7", "--alpha2", "0.03", "--mu", "0.1"]
SLOW = ["--d1", "0.002", "--d2", "0.001", "--alpha1", "0.001", "--alpha2", "0.0006", "--mu", "0.3"]
PLANE = ["--dim", "2", "--n", "24"]
# Identical species: a continuum of coexistence pairs, one found from the cold start.
SYMMETRIC = ["--d1", "0.05", "--d2", "0.05", "--alpha1", "0.02", "--alpha2", "0.02", "--mu", "0.1"]
SWEEP = ["--d1", "0.002", "--d2", "0.001", "--alpha1", "0.001", "--n", "256", "--points", "33"]


def _matrix(presets: list[str]) -> dict[str, list[str]]:
    """Run name -> CLI arguments."""
    runs = {f"fig_{p}": ["figure", p] for p in presets}
    runs["fig17_5000"] = ["figure", "fig17", "--t-end", "5000"]
    # The flag's equal fractions replace the preset's pair mu1/mu2.
    runs["fig17_mu"] = [
        "figure", "fig17", "--mu", "0.01", "--t-end", "5", "--snapshot-times", "0,2.5",
    ]
    runs["sim_raw_unequal_mu"] = [
        "simulate", *WEAK[:-2], "--mu1", "0.01", "--mu2", "0.02", "--n", "64", "--t-end", "50",
    ]
    runs["sim_1d_banded"] = [
        "simulate", "--d1", "0.02", "--d2", "0.02", "--alpha1", "0.2", "--alpha2", "0.1",
        "--mu", "0.009", "--n", "64", "--t-end", "5",
    ]
    runs["sim_2d_modal_banded"] = [
        "simulate", *PLANE, "--d1", "0.025", "--d2", "0.025", "--alpha1", "1.0",
        "--alpha2", "1.0", "--mu", "0.009", "--t-end", "5",
    ]
    # Spread 8.28 along x, just inside the limit: the symmetrized 2-D solve.
    runs["sim_2d_symmetrized_edge"] = [
        "simulate", *PLANE, "--d1", "0.025", "--d2", "0.025", "--alpha1", "0.11",
        "--alpha2", "0.05", "--mu", "0.009", "--t-end", "5",
    ]
    # A dt far above the cap: the clamp zeroes negative output 66 times.
    runs["sim_clamp"] = [
        "simulate", *SLOW, "--n", "64", "--t-end", "20", "--dt", "1.28", "--u0", "1.5", "--v0", "1.5",
    ]
    # The banded step solve with clamps: 57 clamp events.
    runs["sim_banded_clamp"] = [
        "simulate", "--d1", "0.02", "--d2", "0.02", "--alpha1", "0.2", "--alpha2", "0.1",
        "--mu", "0.3", "--n", "64", "--t-end", "20", "--dt", "1.28", "--u0", "1.5", "--v0", "1.5",
    ]
    # The two outcomes no other run reaches: species 2 dies out, and both do.
    runs["sim_uwins_64"] = [
        "simulate", "--d1", "0.07", "--d2", "0.08", "--alpha1", "0.04", "--alpha2", "0.05",
        "--mu", "0.009", "--n", "64", "--t-end", "2000",
    ]
    runs["sim_zero_start"] = ["simulate", "--u0", "0", "--v0", "0", "--n", "16", "--t-end", "1"]
    for mode in ("steady", "eigen"):
        runs[f"{mode}_1d"] = [mode, *WEAK, "--n", "128"]
        runs[f"{mode}_2d"] = [mode, *WEAK, *PLANE]
    # Newton cannot reach 1e-14: both lone states fall back to the march.
    runs["steady_1d_fallback"] = ["steady", *WEAK, "--n", "128", "--tol-steady", "1e-14"]
    runs["steady_1d_pair"] = ["steady", *SYMMETRIC, "--n", "64"]
    runs["steady_1d_pair_1024"] = ["steady", *SYMMETRIC, "--n", "1024"]
    runs["steady_2d_pair"] = ["steady", *SYMMETRIC, *PLANE]
    runs["eigen_1d_loose"] = ["eigen", *WEAK, "--n", "128", "--tol-eigen", "1e-6"]
    runs["sweep_03"] = ["sweep", *SWEEP, "--mu", "0.3"]
    runs["sweep_0997"] = ["sweep", *SWEEP, "--mu", "0.997"]
    runs["sweep_K"] = ["sweep", *SWEEP, "--mu", "0.3", "--K", "1 + x"]
    runs["sweep_sliver"] = [
        "sweep", *SWEEP[:6], "--n", "64", "--points", "120", "--mu", "0.997",
        "--tol-marginal", "1e-9",
    ]
    for family, flags in (("weak", WEAK), ("fast", FAST)):
        for n in (128, 256, 512, 1024):
            runs[f"verify_{family}_{n}"] = ["verify", *flags, "--n", str(n)]
    runs["verify_weak_K1_128"] = ["verify", *WEAK, "--n", "128", "--K", "1"]
    runs["verify_slow_1024"] = ["verify", *SLOW, "--n", "1024"]
    runs["verify_peaked_r_130"] = ["verify", *WEAK, "--r", "1 + 9*sin(pi*x)", "--n", "130"]
    # The fine grid's default dt, given: above the 65-cell grid's dt cap.
    runs["verify_peaked_r_130_dt"] = [*runs["verify_peaked_r_130"], "--dt", "0.0908233232282503"]
    runs["verify_weak_129"] = ["verify", *WEAK, "--n", "129"]
    runs["verify_2d"] = ["verify", *WEAK, *PLANE]
    runs["verify_symmetric_64"] = ["verify", *SYMMETRIC, "--n", "64"]
    runs["verify_sliver_64"] = [
        "verify", *SWEEP[:6], "--alpha2", "7.314e-4", "--mu", "0.997", "--n", "64",
    ]
    return runs


def _usage(message: str) -> None:
    print(message, file=sys.stderr)
    sys.exit(2)


def _src(arg: str) -> Path:
    path = Path(arg).resolve()
    src = path if (path / "rivercomp").is_dir() else path / "src"
    if not (src / "rivercomp").is_dir():
        _usage(f"{arg}: no rivercomp package there or under its src/")
    return src


def _python(src: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=False
    )


def _presets(src: Path, cwd: Path) -> list[str]:
    code = "from rivercomp.experiments import PRESETS; print(' '.join(sorted(PRESETS)))"
    done = _python(src, ["-c", code], cwd)
    if done.returncode != 0:
        _usage(f"cannot list the presets of {src}:\n{done.stderr}")
    return done.stdout.split()


def _run(src: Path, args: list[str], cwd: Path) -> dict[str, bytes | str | int]:
    """The run's exit code, stdout, stderr and written files, keyed by name."""
    cwd.mkdir(parents=True)
    done = _python(src, ["-m", "rivercomp.cli", *args], cwd)
    # A warning names the file it comes from; the two trees' paths differ.
    outcome = {
        "exit code": done.returncode,
        "stdout": done.stdout.replace(str(src), "<src>"),
        "stderr": done.stderr.replace(str(src), "<src>"),
    }
    for path in sorted(cwd.rglob("*")):
        if path.is_file():
            outcome[str(path.relative_to(cwd))] = path.read_bytes()
    return outcome


def _leaves(value, path: str = ""):
    """(path, value) of every leaf of a parsed JSON value; a leaf's path
    keeps list positions as [i] and joins keys with dots."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _csv_leaves(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode())))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    yield "columns", ",".join(header)
    for i, row in enumerate(body):
        for name, cell in zip(header, row):
            try:
                yield f"{name}[{i}]", float(cell)
            except ValueError:
                yield f"{name}[{i}]", cell
        if len(row) != len(header):
            yield f"row[{i}] length", len(row)


def _numeric(value) -> bool:
    return isinstance(value, float)


def _drift(name: str, before: bytes, after: bytes) -> list[str]:
    """The drift of a differing .json or .csv file, one line per finding."""
    try:
        if name.endswith(".json"):
            old, new = (dict(_leaves(json.loads(x))) for x in (before, after))
        elif name.endswith(".csv"):
            old, new = (dict(_csv_leaves(x)) for x in (before, after))
        else:
            return []
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"cannot read both sides: {exc}"]
    lines = []
    quantity_scale: dict[str, float] = {}
    for path, value in old.items():
        if _numeric(value):
            quantity = re.sub(r"\[\d+\]", "", path)
            quantity_scale[quantity] = max(quantity_scale.get(quantity, 0.0), abs(value))
    file_scale = max(quantity_scale.values(), default=0.0)
    worst = (0.0, 0.0, "")  # (relative to its quantity, relative to the file, quantity)
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path), new.get(path)
        if path not in old or path not in new:
            lines.append(f"{path}: only in the {'change' if path in new else 'parent'}")
        elif _numeric(a) and _numeric(b) and math.isfinite(a) and math.isfinite(b):
            if a != b:
                quantity = re.sub(r"\[\d+\]", "", path)
                change = abs(a - b)
                scale = quantity_scale[quantity] or abs(b)
                rel = (change / scale, change / (file_scale or scale), quantity)
                worst = max(worst, rel)
        elif repr(a) != repr(b):
            lines.append(f"{path}: {a!r} -> {b!r}")
    if worst[2]:
        lines.insert(
            0,
            f"largest change {worst[0]:.2e} of its quantity's scale ({worst[2]}), "
            f"{worst[1]:.2e} of the file's",
        )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        _usage(__doc__)
    parent, change = _src(argv[0]), _src(argv[1])
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = _matrix(_presets(change, Path(tmp)))
        for name, args in runs.items():
            before = _run(parent, args, Path(tmp, "parent", name))
            after = _run(change, args, Path(tmp, "change", name))
            diffs = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
            status = f"exit {before['exit code']}"
            print(f"{'same' if not diffs else 'DIFF'}  {name} ({status}): {' '.join(args)}", flush=True)
            for key in diffs:
                print(f"        {key} differs")
                if isinstance(before.get(key), bytes) and isinstance(after.get(key), bytes):
                    for line in _drift(key, before[key], after[key]):
                        print(f"            {line}")
            differing += bool(diffs)
    print(f"{differing} of {len(runs)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
