"""Record every menu item's outputs into reference.json.

    python3 perfbench/make_reference.py

Run this only when the program's results are meant to change; the
benchmark counts a job whose outputs differ from the record as failed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402  (needs the path above)


def main() -> int:
    reference: dict = {}
    work = HERE.parent / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload, menu in jobs.MENUS.items():
            for job in menu:
                observed, _ = jobs.run(job, jobs.setup(job), Path(tmp) / job.key.replace("/", "_"))
                reference.setdefault(workload, {})[job.key] = observed
                print(f"{workload} {job.key}: recorded", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
