import dataclasses
import json

import numpy as np
import pytest

from rivercomp.config import parse_config
from rivercomp.errors import SolverError
from rivercomp.grid import Grid
from rivercomp.output import (
    format_float,
    jsonable,
    write_bundle,
    write_norms_csv,
    write_snapshot_csv,
)
from rivercomp.operators import transport_for
from rivercomp.stepping import Stepper, integrate

WEAK = dict(d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04)


def small_run(n=16, t_end=1.0, snapshot_times=(0.5,)):
    cfg = parse_config(
        overrides=dict(WEAK, mu=0.009, n=n, t_end=t_end, samples=5,
                       snapshot_times=list(snapshot_times))
    )
    grid = cfg.grid()
    eff = cfg.effective(grid)
    op1 = transport_for(grid, cfg.params.d1, cfg.params.alpha1)
    op2 = transport_for(grid, cfg.params.d2, cfg.params.alpha2)
    stepper = Stepper(op1, op2, cfg.params, eff, dt=cfg.dt)
    u0, v0 = cfg.initial_fields(grid)
    traj = integrate(stepper, u0, v0, t_end, n_samples=cfg.samples,
                     snapshot_times=cfg.snapshot_times)
    return cfg, traj


def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, 2.0 ** -52, 12345.678901234567, 0.0):
        assert float(format_float(x)) == x


def test_jsonable_handles_numpy_and_dataclasses():
    @dataclasses.dataclass
    class Leaf:
        score: np.float64
        counts: np.ndarray

    value = {"leaf": Leaf(np.float64(0.25), np.arange(3)), "flag": np.bool_(True)}
    out = jsonable(value)
    assert out == {"leaf": {"score": 0.25, "counts": [0, 1, 2]}, "flag": True}
    json.dumps(out)


def test_snapshot_csv_one_dimensional_layout(tmp_path):
    grid = Grid(1, 0.0, 1.0, 4)
    u = np.array([1.0, 2.0, 3.0, 4.0])
    path = tmp_path / "snap.csv"
    write_snapshot_csv(path, grid, u, 0.5 * u)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u,v"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.125
    assert float(first[1]) == 1.0
    assert float(first[2]) == 0.5


def test_snapshot_csv_two_dimensional_layout(tmp_path):
    grid = Grid(2, 0.0, 1.0, 3)
    u = np.arange(9, dtype=float)
    path = tmp_path / "snap2d.csv"
    write_snapshot_csv(path, grid, u, u[::-1].copy())
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,u,v"
    assert len(lines) == 10
    # x varies fastest within a row of cells.
    x0, y0 = (float(v) for v in lines[1].split(",")[:2])
    x1, y1 = (float(v) for v in lines[2].split(",")[:2])
    assert x1 > x0 and y1 == y0


def row_by_row(header, columns):
    """A CSV formed one row at a time, each cell by ``format_float``: the
    reference for the columnar writer."""
    lines = [header]
    for i in range(len(columns[0])):
        lines.append(",".join(format_float(column[i]) for column in columns))
    return "\n".join(lines) + "\n"


def test_columnar_csv_writer_matches_the_row_by_row_text(tmp_path):
    rng = np.random.default_rng(7)
    for dim, n in ((1, 37), (2, 7)):
        grid = Grid(dim, 0.0, 1.0, n)
        u = rng.standard_normal(grid.size) * 10.0 ** rng.uniform(-300, 300, grid.size)
        v = rng.random(grid.size)
        u[:3], v[:3] = (0.0, -0.0, 1.0), (5e-324, 1e16, 0.1)
        path = tmp_path / f"snap{dim}.csv"
        write_snapshot_csv(path, grid, u, v)
        coordinates = [c for c in grid.coordinate_arrays() if c is not None]
        header = "x,u,v" if dim == 1 else "x,y,u,v"
        assert path.read_bytes() == row_by_row(header, [*coordinates, u, v]).encode()

    _, traj = small_run()
    write_norms_csv(tmp_path / "norms.csv", traj)
    columns = [traj.times, traj.norm_u_inf, traj.norm_v_inf, traj.mass_u, traj.mass_v]
    want = row_by_row("t,norm_u_inf,norm_v_inf,mass_u,mass_v", columns)
    assert (tmp_path / "norms.csv").read_bytes() == want.encode()


def test_bundle_contents_and_determinism(tmp_path):
    cfg, traj = small_run()
    report = {"outcome": "undecided", "norm": np.float64(0.75)}

    dir_a = write_bundle(cfg, report, traj, out_dir=tmp_path / "a")
    dir_b = write_bundle(cfg, report, traj, out_dir=tmp_path / "b")

    names = sorted(p.name for p in dir_a.iterdir())
    # The final state is always kept as a snapshot alongside requested times.
    assert names == [
        "config.echo.json",
        "norms.csv",
        "report.json",
        "snapshot_0.5.csv",
        "snapshot_1.0.csv",
    ]
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    norms = (dir_a / "norms.csv").read_text().splitlines()
    assert norms[0] == "t,norm_u_inf,norm_v_inf,mass_u,mass_v"
    assert len(norms) == len(traj.times) + 1
    echoed = json.loads((dir_a / "config.echo.json").read_text())
    assert echoed["n"] == 16
    assert json.loads((dir_a / "report.json").read_text())["norm"] == 0.75


def test_rewriting_same_bundle_is_byte_stable(tmp_path):
    cfg, traj = small_run(n=8, t_end=0.5, snapshot_times=())
    target = tmp_path / "run"
    write_bundle(cfg, {"outcome": "undecided"}, traj, out_dir=target)
    before = {p.name: p.read_bytes() for p in target.iterdir()}
    write_bundle(cfg, {"outcome": "undecided"}, traj, out_dir=target)
    after = {p.name: p.read_bytes() for p in target.iterdir()}
    assert before == after


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64(-np.inf)])
def test_a_report_holding_a_non_finite_number_writes_nothing(tmp_path, bad):
    # Every bundle is strict JSON: the report is serialized before any file
    # is written, so a NaN or infinity leaves no directory behind.
    cfg, traj = small_run()
    out = tmp_path / "run"
    with pytest.raises(SolverError, match="not strict JSON"):
        write_bundle(cfg, {"outcome": "Undecided", "nested": {"values": [1.0, bad]}}, traj=traj, out_dir=out)
    assert not out.exists()
