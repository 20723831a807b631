"""Check that two source trees give byte-identical command-line runs.

    python tools/compare_bundles.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory (the one that holds ``rivercomp/``)
or a tree root that holds one.  Every run of a fixed matrix of
``python -m rivercomp.cli`` commands goes once against each tree, in a
fresh temporary working directory of its own.  Then every file the run
wrote, its stdout, its stderr and its exit code are compared between the
two trees.  Each difference is printed; the exit code is 1 if there is
any, 0 if there is none and 2 on a usage error.

The matrix: ``figure`` on every preset and fig17 at ``--t-end 5000``;
``simulate`` in raw form with mu1 != mu2 and a drift-dominated 2-D
``simulate`` (the modal-banded step solve); ``steady`` and ``eigen`` in
1-D and 2-D; ``sweep`` on the criterion-6 family at mu 0.3, mu 0.997 and
``K="1 + x"``; ``verify`` on the weak and fast families at n 128, 256,
512 and 1024: 29 runs, about a minute on a 2-core machine.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

WEAK = ["--d1", "0.08", "--d2", "0.07", "--alpha1", "0.05", "--alpha2", "0.04", "--mu", "0.009"]
FAST = ["--d1", "3.0", "--d2", "0.8", "--alpha1", "0.7", "--alpha2", "0.03", "--mu", "0.1"]
PLANE = ["--dim", "2", "--n", "24"]
SWEEP = ["--d1", "0.002", "--d2", "0.001", "--alpha1", "0.001", "--n", "256", "--points", "33"]


def _matrix(presets: list[str]) -> dict[str, list[str]]:
    """Run name -> CLI arguments."""
    runs = {f"fig_{p}": ["figure", p] for p in presets}
    runs["fig17_5000"] = ["figure", "fig17", "--t-end", "5000"]
    runs["sim_raw_unequal_mu"] = [
        "simulate", *WEAK[:-2], "--mu1", "0.01", "--mu2", "0.02", "--reaction-form", "raw",
        "--n", "64", "--t-end", "50",
    ]
    runs["sim_2d_modal_banded"] = [
        "simulate", *PLANE, "--d1", "0.025", "--d2", "0.025", "--alpha1", "1.0",
        "--alpha2", "1.0", "--mu", "0.009", "--t-end", "5",
    ]
    for mode in ("steady", "eigen"):
        runs[f"{mode}_1d"] = [mode, *WEAK, "--n", "128"]
        runs[f"{mode}_2d"] = [mode, *WEAK, *PLANE]
    runs["sweep_03"] = ["sweep", *SWEEP, "--mu", "0.3"]
    runs["sweep_0997"] = ["sweep", *SWEEP, "--mu", "0.997"]
    runs["sweep_K"] = ["sweep", *SWEEP, "--mu", "0.3", "--K", "1 + x"]
    for family, flags in (("weak", WEAK), ("fast", FAST)):
        for n in (128, 256, 512, 1024):
            runs[f"verify_{family}_{n}"] = ["verify", *flags, "--n", str(n)]
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
            differing += bool(diffs)
    print(f"{differing} of {len(runs)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
