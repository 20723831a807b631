"""tools/served_lines.py on one small run, traced in this process."""

import importlib.util
from pathlib import Path

from rivercomp import spectral

_spec = importlib.util.spec_from_file_location(
    "served_lines", Path(__file__).resolve().parents[1] / "tools" / "served_lines.py"
)
served_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(served_lines)


def test_an_eigen_run_reaches_the_iterative_solve_and_not_the_dense_one(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    module = Path(spectral.__file__)
    runs = {"eigen": ["eigen", *served_lines.compare_bundles.WEAK, "--n", "32"]}
    executed = served_lines.trace(runs, module.parent)
    lines = executed[str(module)]
    stmts = served_lines.statements(module)

    def reached(function):
        return [not s.lines.isdisjoint(lines) for s in stmts if s.function == function]

    assert any(reached("principal_eigenpair"))
    dense = reached("dense_principal_eigenpair")
    assert dense and not any(dense)
    # The dense oracle's body is one unreached block, and the report lists it.
    blocks = served_lines.unreached(stmts, lines)
    assert [b[3] for b in blocks if b[2] == "dense_principal_eigenpair"] == [len(dense)]
    assert "  dense_principal_eigenpair" in served_lines.report(module.parent, executed)
    assert Path.cwd() == tmp_path
