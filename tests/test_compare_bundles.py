"""The drift report of tools/compare_bundles.py on hand-made bundle files."""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "compare_bundles", Path(__file__).resolve().parents[1] / "tools" / "compare_bundles.py"
)
compare_bundles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bundles)


def _json(**values) -> bytes:
    return json.dumps(values).encode()


def test_json_drift_is_relative_to_the_quantity_and_the_file():
    # final_norm_u moves by 2^-40 from 2^-20: 2^-20 of its own scale and
    # 2^-40 of the file's (final_mass_u is 1).  Integers, strings and keys
    # compare exactly and are each listed.
    before = _json(outcome="UWins", final_norm_u=0.5**20, final_mass_u=1.0, clamp_events=3, x=None)
    after = _json(outcome="VWins", final_norm_u=0.5**20 + 0.5**40, final_mass_u=1.0, clamp_events=4, y=1)
    assert compare_bundles._drift("report.json", before, after) == [
        f"largest change {0.5**20:.2e} of its quantity's scale (final_norm_u), {0.5**40:.2e} of the file's",
        "clamp_events: 3 -> 4",
        "outcome: 'UWins' -> 'VWins'",
        "x: only in the parent",
        "y: only in the change",
    ]


def test_csv_drift_names_the_column_and_lists_the_rest():
    before = b"t,u\n0.0,1.0\n1.0,2.0\n"
    after = b"t,u\n0.0,1.0\n1.0,2.5\n2.0,3.0\n"
    lines = compare_bundles._drift("norms.csv", before, after)
    assert lines == [
        "largest change 2.50e-01 of its quantity's scale (u), 2.50e-01 of the file's",
        "t[2]: only in the change",
        "u[2]: only in the change",
    ]
    assert compare_bundles._drift("norms.csv", before, before.replace(b"t,u", b"t,v"))[0] == "columns: 't,u' -> 't,v'"
    assert compare_bundles._drift("stdout", b"a", b"b") == []
