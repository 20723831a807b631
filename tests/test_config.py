import json

import numpy as np
import pytest

from rivercomp.config import parse_config
from rivercomp.spectral import TOL_EIGEN, TOL_MARGINAL
from rivercomp.steady import TOL_STEADY
from rivercomp.stepping import EPS_SETTLE, classify_outcome
from rivercomp.errors import ConfigError, GridResolutionError

WEAK = dict(d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04)


def test_minimal_config_fills_documented_defaults():
    cfg = parse_config(overrides=dict(WEAK))
    assert cfg.mode == "simulate"
    assert cfg.reaction_form == "folded"
    assert cfg.n == 256
    assert cfg.t_end == 100.0
    assert cfg.dt == 0.1
    assert cfg.samples == 100
    assert cfg.out_dir == "out"
    assert cfg.params.mu1 == 0.0 and cfg.params.mu2 == 0.0
    for key in ("mu1", "mu2", "K", "dt", "tolerances.steady", "tolerances.extinct"):
        assert key in cfg.defaulted


def test_default_initial_density_is_half_the_capacity_floor():
    cfg = parse_config(overrides=dict(WEAK, mu=0.2))
    grid = cfg.grid()
    eff = cfg.effective(grid)
    u0, v0 = cfg.initial_fields(grid)
    expected = 0.5 * float(np.min(eff.K1))
    np.testing.assert_array_equal(u0, expected)
    np.testing.assert_array_equal(v0, expected)


def test_expression_initial_density():
    cfg = parse_config(overrides=dict(WEAK, u0="0.4 + 0.1*cos(pi*x)", n=32))
    u0, v0 = cfg.initial_fields(cfg.grid())
    assert u0.shape == (32,)
    assert u0.max() <= 0.5
    assert float(np.ptp(v0)) == 0.0


def test_unknown_key_reports_first_alphabetically():
    with pytest.raises(ConfigError, match="unknown config key 'aardvark'"):
        parse_config(overrides=dict(WEAK, zebra=1, aardvark=2))


def test_mu_shorthand_conflicts_with_pair():
    with pytest.raises(ConfigError, match="not both"):
        parse_config(overrides=dict(WEAK, mu=0.1, mu1=0.1, mu2=0.1))


def test_override_harvest_form_replaces_the_file_s(tmp_path):
    # In both directions: --mu over a file's mu1/mu2, and mu1/mu2 over a
    # file's mu.  Both forms in one source stay an error.
    pair, single, both = tmp_path / "pair.json", tmp_path / "single.json", tmp_path / "both.json"
    pair.write_text(json.dumps(dict(WEAK, mu1=0.1, mu2=0.2)))
    single.write_text(json.dumps(dict(WEAK, mu=0.3)))
    both.write_text(json.dumps(dict(WEAK, mu=0.3, mu1=0.3, mu2=0.3)))
    cfg = parse_config(pair, {"mu": 0.25})
    assert (cfg.params.mu1, cfg.params.mu2) == (0.25, 0.25)
    assert not {"mu1", "mu2"} & set(cfg.defaulted)
    cfg = parse_config(single, {"mu1": 0.1, "mu2": 0.2})
    assert (cfg.params.mu1, cfg.params.mu2) == (0.1, 0.2)
    with pytest.raises(ConfigError, match="not both"):
        parse_config(both, {"mu": 0.25})
    with pytest.raises(ConfigError, match="not both"):
        parse_config(single, {"mu": 0.25, "mu1": 0.25})


def test_a_mapping_base_layer_follows_a_file_s_rules(tmp_path):
    # A mapping given as the base layer (a figure preset) parses as the
    # same keys in a file do, under every override: the harvest form
    # replaced, tolerances merged key by key, unknown keys refused.
    base = dict(WEAK, mu=0.3, n=32, t_end=5.0, tolerances={"settle": 0.01}, _defaulted=["dt"])
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    for overrides in ({}, {"mu1": 0.1, "mu2": 0.2}, {"tolerances": {"steady": 1e-9}}, {"dt": 0.05}):
        cfg = parse_config(base, overrides)
        assert cfg.echo_json() == parse_config(path, overrides).echo_json()
    assert (cfg.dt, cfg.tolerances.settle) == (0.05, 0.01)
    with pytest.raises(ConfigError, match="unknown config key 'zebra'"):
        parse_config(dict(base, zebra=1))
    with pytest.raises(ConfigError, match="not both"):
        parse_config(dict(base, mu1=0.3, mu2=0.3))


def test_carried_defaults_are_derived_again(tmp_path):
    # An echo's _defaulted keys are derived anew from the overrides: dt
    # from r, u0, v0 and tolerances.extinct from K and mu, n from dim.
    # Given keys stay as the file has them.  The result is what a parse
    # of the file's given keys plus the overrides makes.
    echo = parse_config(overrides=dict(WEAK, mu=0.009, t_end=5.0, tolerances={"settle": 0.01}))
    path = tmp_path / "config.echo.json"
    path.write_text(echo.echo_json())
    given = {k: v for k, v in json.loads(echo.echo_json()).items() if k not in echo.defaulted}
    given["tolerances"] = {"settle": 0.01}
    del given["_defaulted"]
    for overrides in ({"r": "40 + x"}, {"K": "2 - x"}, {"mu": 0.2}, {"dim": 2}):
        fresh = {k: v for k, v in given.items() if not ("mu" in overrides and k in ("mu1", "mu2"))}
        cfg = parse_config(path, overrides)
        assert cfg.echo_json() == parse_config(overrides=dict(fresh, **overrides)).echo_json()
    cfg = parse_config(path, {"r": "40 + x"})
    assert cfg.dt < echo.dt == 0.1 and "dt" in cfg.defaulted
    cfg = parse_config(path, {"K": "2 - x"})
    assert cfg.u0 != echo.u0 and cfg.tolerances.extinct != echo.tolerances.extinct
    assert parse_config(path, {"dim": 2}).n == 64


def test_defaulted_names_keys_with_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(WEAK, figure="fig2", _defaulted=["figure"])))
    with pytest.raises(ConfigError, match="'figure', which has no default"):
        parse_config(path)


def test_mu_pair_must_be_complete():
    with pytest.raises(ConfigError, match="given together"):
        parse_config(overrides=dict(WEAK, mu1=0.1))


def test_harvest_fraction_at_or_above_one_rejected():
    with pytest.raises(ConfigError):
        parse_config(overrides=dict(WEAK, mu=1.2))


def test_reaction_form_follows_the_harvest_fractions():
    # Folded exactly when mu1 == mu2, however the fractions are given; the
    # form is derived, so it is neither defaulted nor echoed.
    for harvest, form in (
        ({"mu1": 0.1, "mu2": 0.2}, "raw"),
        ({"mu1": 0.2, "mu2": 0.1}, "raw"),
        ({"mu1": 0.1, "mu2": 0.1}, "folded"),
        ({"mu": 0.1}, "folded"),
        ({}, "folded"),
    ):
        cfg = parse_config(overrides=dict(WEAK, **harvest))
        assert cfg.reaction_form == form
        assert "reaction_form" not in cfg.defaulted
        assert "reaction_form" not in json.loads(cfg.echo_json())


@pytest.mark.parametrize("form", ["folded", "raw"])
def test_reaction_form_is_an_unknown_key(tmp_path, form):
    # In a file, an old echo or an override, at equal or unequal fractions.
    echo = json.loads(parse_config(overrides=dict(WEAK, mu=0.1)).echo_json())
    old_echo = dict(echo, reaction_form=form, _defaulted=[*echo["_defaulted"], "reaction_form"])
    for i, data in enumerate((dict(WEAK, mu=0.1, reaction_form=form), old_echo)):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="unknown config key 'reaction_form'"):
            parse_config(path)
    for harvest in ({"mu": 0.1}, {"mu1": 0.1, "mu2": 0.2}):
        with pytest.raises(ConfigError, match="unknown config key 'reaction_form'"):
            parse_config(overrides=dict(WEAK, reaction_form=form, **harvest))


def test_peclet_guard_names_the_required_resolution():
    with pytest.raises(GridResolutionError, match="n = 126"):
        parse_config(overrides=dict(d1=0.002, d2=0.001, alpha1=0.5, alpha2=0.0, n=16))


def test_dt_outside_positivity_cap_rejected():
    with pytest.raises(ConfigError, match="positivity-safe"):
        parse_config(overrides=dict(WEAK, dt=5.0))
    with pytest.raises(ConfigError, match="positivity-safe"):
        parse_config(overrides=dict(WEAK, dt=0.0))


def test_t_end_must_be_positive():
    with pytest.raises(ConfigError, match="t_end must be positive"):
        parse_config(overrides=dict(WEAK, t_end=0.0))


def test_unknown_tolerance_key_rejected():
    with pytest.raises(ConfigError, match="unknown tolerances key 'slack'"):
        parse_config(overrides=dict(WEAK, tolerances={"slack": 1e-3}))


def test_default_tolerances_are_the_solvers_defaults():
    tol = parse_config(overrides=WEAK).tolerances
    assert (tol.steady, tol.eigen, tol.marginal, tol.settle) == (
        TOL_STEADY,
        TOL_EIGEN,
        TOL_MARGINAL,
        EPS_SETTLE,
    )
    assert classify_outcome.__defaults__ == (EPS_SETTLE,)


def test_explicit_tolerance_not_marked_defaulted():
    cfg = parse_config(overrides=dict(WEAK, tolerances={"steady": 1e-9}))
    assert cfg.tolerances.steady == 1e-9
    assert "tolerances.steady" not in cfg.defaulted
    assert "tolerances.eigen" in cfg.defaulted


def test_file_tolerances_merge_with_overrides_key_by_key(tmp_path):
    # An override of one tolerance keeps the file's others, and takes its
    # key off the file's carried "_defaulted" list.
    path = tmp_path / "cfg.json"
    carried = ["tolerances.eigen", "tolerances.steady"]
    path.write_text(json.dumps(dict(WEAK, tolerances={"settle": 0.01}, _defaulted=carried)))
    cfg = parse_config(path, {"tolerances": {"steady": 1e-9}, "n": None})
    assert (cfg.tolerances.steady, cfg.tolerances.settle) == (1e-9, 0.01)
    assert "tolerances.steady" not in cfg.defaulted
    assert "tolerances.settle" not in cfg.defaulted
    assert {"tolerances.eigen", "n"} <= set(cfg.defaulted)


def test_negative_initial_density_rejected():
    with pytest.raises(ConfigError, match="u0 must be nonnegative"):
        parse_config(overrides=dict(WEAK, u0=-0.5))
    with pytest.raises(ConfigError, match="v0 must be nonnegative"):
        parse_config(overrides=dict(WEAK, v0="-1 + cos(pi*x)", n=32))


def test_snapshot_times_validation():
    with pytest.raises(ConfigError, match="snapshot_times"):
        parse_config(overrides=dict(WEAK, snapshot_times=7.0))
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_config(overrides=dict(WEAK, snapshot_times=[-1.0]))
    cfg = parse_config(overrides=dict(WEAK, snapshot_times=[5.0, 1.0]))
    assert cfg.snapshot_times == (1.0, 5.0)
    # A time past t_end would never be reached; t_end itself is.
    with pytest.raises(ConfigError, match="snapshot time 10.0 lies beyond t_end 5.0"):
        parse_config(overrides=dict(WEAK, t_end=5.0, snapshot_times=[2.0, 10.0]))
    assert parse_config(overrides=dict(WEAK, t_end=5.0, snapshot_times=[5.0])).snapshot_times == (5.0,)


def test_mode_must_be_known():
    with pytest.raises(ConfigError, match="mode must be one of"):
        parse_config(overrides=dict(WEAK, mode="dance"))


def test_echo_is_stable_under_reparse(tmp_path):
    cfg = parse_config(overrides=dict(WEAK, mu=0.3, n=64, t_end=12.5))
    echo = cfg.echo_json()
    assert echo.endswith("\n")
    path = tmp_path / "config.echo.json"
    path.write_text(echo)
    again = parse_config(path)
    assert again.echo_json() == echo
    # The shorthand is normalized away in the echo.
    data = json.loads(echo)
    assert "mu" not in data
    assert data["mu1"] == 0.3 and data["mu2"] == 0.3
    assert "dt" in data["_defaulted"]
