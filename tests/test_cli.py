import json

import pytest

from rivercomp import cli, experiments
from rivercomp.cli import _parser, main
from rivercomp.config import parse_config
from rivercomp.errors import SolverError
from rivercomp.experiments import SweepPoint, SweepResult
from rivercomp.stepping import Verdict

WEAK_FLAGS = [
    "--d1", "0.08", "--d2", "0.07", "--alpha1", "0.05", "--alpha2", "0.04",
    "--mu", "0.009",
]


def test_simulate_writes_bundle_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["simulate", *WEAK_FLAGS, "--n", "16", "--t-end", "1.0",
         "--samples", "5", "--out-dir", str(out)]
    )
    assert code == 0
    assert (out / "config.echo.json").exists()
    assert (out / "norms.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["outcome"] == "Undecided"
    assert report["implicit_solve"] == "symmetrized"
    assert "-> " + str(out) in capsys.readouterr().out


@pytest.mark.parametrize("alpha,solve", [(1.0, "modal-banded"), (0.025, "symmetrized")])
def test_simulate_reports_the_2d_implicit_solve(tmp_path, alpha, solve):
    # alpha/d = 40 spreads Lx's symmetrizer by about e^20: drift-dominated
    # input keeps the modal-banded solve.
    out = tmp_path / "run"
    flags = ["--dim", "2", "--d1", "0.025", "--d2", "0.025", "--alpha1", str(alpha),
             "--alpha2", str(alpha), "--mu", "0.009", "--n", "24"]
    assert main(["simulate", *flags, "--t-end", "0.5", "--samples", "5", "--out-dir", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["implicit_solve"] == solve


def test_unknown_config_key_in_file_exits_two(tmp_path, capsys):
    # An echo written before the sweep lost its worker count still holds
    # "workers"; it is refused like any other unknown key.
    for key in ("bogus", "workers"):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"d1": 0.08, "d2": 0.07, key: 1}))
        code = main(["simulate", "--config", str(path)])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "config"
        assert f"unknown config key {key!r}" in record["message"]


def test_figure_rejects_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    code = main(["figure", "fig1", "--config", str(path)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert "presets carry their own parameters" in record["message"]


def test_snapshot_time_past_t_end_exits_two(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["simulate", *WEAK_FLAGS, "--n", "16", "--t-end", "5", "--snapshot-times", "2,10"]
    assert main([*argv, "--out-dir", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert "snapshot time 10.0 lies beyond t_end 5.0" in record["message"]
    assert not out.exists()


def test_preset_drops_its_snapshot_times_past_an_overridden_t_end(tmp_path):
    # fig2 snapshots at 0 and at its own t_end, 80.  At --t-end 5 the echo
    # lists only 0; the bundle holds that snapshot and the final one.  At
    # its own t_end the echo keeps both.
    short, full = tmp_path / "short", tmp_path / "full"
    assert main(["figure", "fig2", "--t-end", "5", "--out-dir", str(short)]) == 0
    assert json.loads((short / "config.echo.json").read_text())["snapshot_times"] == [0.0]
    assert sorted(p.name for p in short.glob("snapshot_*")) == ["snapshot_0.0.csv", "snapshot_5.0.csv"]
    assert main(["figure", "fig2", "--n", "16", "--out-dir", str(full)]) == 0
    assert json.loads((full / "config.echo.json").read_text())["snapshot_times"] == [0.0, 80.0]


def test_unknown_figure_exits_two(capsys):
    code = main(["figure", "fig99"])
    assert code == 2
    assert "known presets" in json.loads(capsys.readouterr().err.strip())["message"]


def test_sweep_without_window_reports_none(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--d1", "0.002", "--d2", "0.001", "--alpha1", "0.001",
         "--mu", "0.3", "--n", "64", "--points", "8", "--out-dir", str(out)]
    )
    assert code == 0
    assert "coexistence window none" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["window"] is None
    assert report["pattern"] == ["VWins"] * 8
    assert report["transitions"] == []


def test_verify_prints_one_line_per_check(tmp_path, capsys):
    out = tmp_path / "verify"
    code = main(["verify", *WEAK_FLAGS, "--n", "128", "--out-dir", str(out)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    checks = [l for l in lines if l.lstrip().startswith(("pass", "skip", "FAIL"))]
    assert len(checks) == 6
    assert not any(l.lstrip().startswith("FAIL") for l in checks)
    assert lines[-1].startswith("all checks pass")


def test_verify_report_is_strict_json_at_a_zero_fine_residual(tmp_path):
    # Equal movement makes the fine eigen-difference residual exactly 0:
    # the two-grid ratio is null, never the non-JSON Infinity.
    def refuse(name):
        raise ValueError(f"report.json holds {name}")

    out = tmp_path / "verify"
    flags = ["--d1", "0.05", "--d2", "0.05", "--alpha1", "0.02", "--alpha2", "0.02", "--mu", "0.1"]
    assert main(["verify", *flags, "--n", "64", "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    entry = report["checks"]["eigen_difference"]
    assert entry["residual"] == 0.0
    assert entry["ratio"] is None and entry["pass"] is True


def test_eigen_subcommand_prints_verdicts(tmp_path, capsys):
    out = tmp_path / "eigen"
    code = main(["eigen", *WEAK_FLAGS, "--n", "64", "--out-dir", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "(unstable)" in text and "(stable)" in text



def test_every_flag_reaches_the_echo(tmp_path):
    # Each flag, every --tol-* included, sets its config key: the echo
    # holds every value given and defaults nothing.  --mu is the
    # shorthand for equal mu1 and mu2, so it runs second in their place.
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("{}")
    out = tmp_path / "run"
    flags = {
        "--d1": "0.08", "--d2": "0.07", "--alpha1": "0.05", "--alpha2": "0.04",
        "--mu1": "0.01", "--mu2": "0.02", "--r": "1 + 0.5*x", "--K": "2 - x",
        "--a": "0.25", "--b": "1.5", "--dim": "1",
        "--n": "24", "--dt": "0.05", "--t-end": "0.5", "--u0": "0.3",
        "--v0": "0.2 + 0.1*x", "--snapshot-times": "0.1,0.2", "--samples": "5",
        "--points": "9", "--out-dir": str(out), "--tol-steady": "1e-9",
        "--tol-eigen": "1e-11", "--tol-marginal": "1e-6", "--tol-extinct": "1e-5",
        "--tol-settle": "0.001",
    }
    expected = {
        "mode": "simulate", "d1": 0.08, "d2": 0.07,
        "alpha1": 0.05, "alpha2": 0.04, "mu1": 0.01, "mu2": 0.02, "r": "1 + 0.5*x",
        "K": "2 - x", "a": 0.25, "b": 1.5, "dim": 1, "n": 24, "dt": 0.05, "t_end": 0.5,
        "u0": 0.3, "v0": "0.2 + 0.1*x", "snapshot_times": [0.1, 0.2], "samples": 5,
        "points": 9, "out_dir": str(out),
        "tolerances": {
            "steady": 1e-9, "eigen": 1e-11, "marginal": 1e-6, "extinct": 1e-5, "settle": 0.001,
        },
        "_defaulted": [],
    }
    argv = ["simulate", "--config", str(cfg_file), *(x for kv in flags.items() for x in kv)]
    flags_only_mu = {k: v for k, v in flags.items() if k not in ("--mu1", "--mu2")}
    argv_mu = ["simulate", *(x for kv in flags_only_mu.items() for x in kv), "--mu", "0.01"]
    given = vars(_parser().parse_args(argv))
    assert [k for k, v in given.items() if v is None] == ["mu"]
    assert main(argv) == 0
    assert json.loads((out / "config.echo.json").read_text()) == expected
    assert main(argv_mu) == 0
    assert json.loads((out / "config.echo.json").read_text()) == dict(expected, mu2=0.01)


def test_tol_flag_overrides_one_tolerance_of_the_file(tmp_path):
    # fig2 sets tolerances.settle to 0.01; re-running its echo with one
    # --tol-* flag overrides that key alone, and the flag's key is no
    # longer listed as defaulted.
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["figure", "fig2", "--t-end", "5", "--out-dir", str(first)]) == 0
    echo = json.loads((first / "config.echo.json").read_text())
    assert echo["tolerances"]["settle"] == 0.01
    assert "tolerances.steady" in echo["_defaulted"]
    argv = ["simulate", "--config", str(first / "config.echo.json"), "--tol-steady", "1e-9"]
    assert main([*argv, "--out-dir", str(second)]) == 0
    again = json.loads((second / "config.echo.json").read_text())
    assert again["tolerances"] == dict(echo["tolerances"], steady=1e-9)
    assert again["_defaulted"] == [k for k in echo["_defaulted"] if k != "tolerances.steady"]


def test_echo_reruns_with_derived_defaults_and_another_harvest(tmp_path):
    # The fig2 echo lists dt, u0, v0 and tolerances.extinct as defaulted:
    # re-run with another r, they are derived again (dt takes the new
    # cap, not the echo's 0.1), and --mu replaces the echo's mu1/mu2.
    # Re-running an echo unchanged writes it again byte for byte.
    first = tmp_path / "a"
    assert main(["figure", "fig2", "--t-end", "5", "--out-dir", str(first)]) == 0
    echo_path = first / "config.echo.json"
    echo = json.loads(echo_path.read_text())
    assert {"dt", "u0", "v0", "tolerances.extinct"} <= set(echo["_defaulted"])
    for name, flags in {"r": ["--r", "40 + x"], "mu": ["--mu", "0.2"]}.items():
        argv = ["simulate", "--config", str(echo_path), *flags, "--out-dir", str(tmp_path / name)]
        assert main(argv) == 0
    again = json.loads((tmp_path / "r" / "config.echo.json").read_text())
    assert again["dt"] == pytest.approx(0.9 / (41.0 * (1.0 - 0.009)), rel=1e-3)
    assert again["_defaulted"] == [k for k in echo["_defaulted"] if k != "r"]
    again = json.loads((tmp_path / "mu" / "config.echo.json").read_text())
    assert (again["mu1"], again["mu2"]) == (0.2, 0.2)
    assert again["u0"] < echo["u0"] and again["tolerances"]["extinct"] < echo["tolerances"]["extinct"]
    for name in ("r", "mu"):
        path = tmp_path / name / "config.echo.json"
        written = path.read_bytes()
        assert main(["simulate", "--config", str(path)]) == 0
        assert path.read_bytes() == written


UNEQUAL_FLAGS = [*WEAK_FLAGS[:-2], "--mu1", "0.009", "--mu2", "0.02", "--n", "16", "--t-end", "1.0"]


def test_unequal_harvest_runs_the_raw_form(tmp_path, monkeypatch):
    # Unequal fractions run in the raw form, and the echo names no form;
    # re-run from the echo with --mu, the now equal fractions fold.
    forms = []
    real_stepper = experiments.Stepper

    def recording_stepper(*args, form, **kwargs):
        forms.append(form)
        return real_stepper(*args, form=form, **kwargs)

    monkeypatch.setattr(experiments, "Stepper", recording_stepper)
    first, second = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", *UNEQUAL_FLAGS, "--out-dir", str(first)]) == 0
    echo_path = first / "config.echo.json"
    echo = json.loads(echo_path.read_text())
    assert "reaction_form" not in echo and "reaction_form" not in echo["_defaulted"]
    assert parse_config(echo_path).reaction_form == "raw"
    argv = ["simulate", "--config", str(echo_path), "--mu", "0.009"]
    assert main([*argv, "--out-dir", str(second)]) == 0
    again = json.loads((second / "config.echo.json").read_text())
    assert (again["mu1"], again["mu2"]) == (0.009, 0.009)
    assert "reaction_form" not in again and "reaction_form" not in again["_defaulted"]
    assert parse_config(second / "config.echo.json").reaction_form == "folded"
    assert forms == ["raw", "folded"]


def test_reaction_form_flag_is_gone(tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--reaction-form", "raw", *UNEQUAL_FLAGS, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "--reaction-form" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["steady", "eigen", "sweep", "verify"])
def test_analyses_refuse_unequal_harvest(tmp_path, capsys, mode):
    # The steady and invasion analysis is of the folded model, so unequal
    # harvest fractions are refused rather than analysed at min(mu1, mu2).
    flags = ["--d1", "0.08", "--d2", "0.07", "--alpha1", "0.05", "--alpha2", "0.04",
             "--mu1", "0.01", "--mu2", "0.5", "--n", "64"]
    assert main([mode, *flags, "--out-dir", str(tmp_path / "run")]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert "equal harvest" in record["message"] and "simulate" in record["message"]
    assert not (tmp_path / "run").exists()


SWEEP_FLAGS = ["--d1", "0.002", "--d2", "0.001", "--alpha1", "0.001", "--mu", "0.3", "--n", "16"]


def test_sweep_anomaly_writes_the_bundle_and_exits_four(tmp_path, capsys, monkeypatch):
    point = SweepPoint(7e-4, 1e-3, 1e-3, True, Verdict.UNDECIDED, True)
    anomaly = "alpha2=0.0007: both lone states attracting yet a positive pair exists"
    result = SweepResult(
        omega1=0.5, lo=5e-4, hi=1e-3, points=[point], edge_points=[], window=None,
        epsilon1=None, epsilon2=None, anomalies=[anomaly],
    )
    monkeypatch.setattr(cli, "sweep_alpha2", lambda cfg: result)
    out = tmp_path / "sweep"
    assert main(["sweep", *SWEEP_FLAGS, "--out-dir", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert [json.loads(l) for l in lines] == [
        {"error": "anomaly", "type": "AnomalyError", "message": anomaly}
    ]
    assert json.loads((out / "report.json").read_text())["anomalies"] == [anomaly]


def test_failing_verify_check_exits_three(tmp_path, capsys, monkeypatch):
    report = {
        "checks": {
            "capacity_gap": {"pass": True, "skipped": False},
            "eigen_difference": {"pass": False, "skipped": False, "ratio": 9.0},
        },
        "all_pass": False,
        "lone_states": {},
    }
    monkeypatch.setattr(cli, "run_verification", lambda cfg: report)
    out = tmp_path / "verify"
    assert main(["verify", *WEAK_FLAGS, "--n", "16", "--out-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["pass  capacity_gap", "FAIL  eigen_difference"]
    record = json.loads(captured.err.strip())
    assert record == {
        "error": "verification", "type": "SolverError", "message": "failed checks: eigen_difference"
    }
    assert (out / "report.json").exists()


def test_solver_failure_exits_three(tmp_path, capsys, monkeypatch):
    def fail(cfg):
        raise SolverError("Newton stalled at residual 1e-3")

    monkeypatch.setattr(cli, "steady_report", fail)
    out = tmp_path / "steady"
    assert main(["steady", *WEAK_FLAGS, "--n", "16", "--out-dir", str(out)]) == 3
    record = json.loads(capsys.readouterr().err.strip())
    assert record == {
        "error": "numerical", "type": "SolverError", "message": "Newton stalled at residual 1e-3"
    }
    assert not out.exists()
