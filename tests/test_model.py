"""Parameter handling, the harvest fold, and the drift-ratio regime split.

The harvest fold rescales the growth law algebraically, so the folded and
raw forms must agree to rounding on any state, not just near solutions;
that identity is what lets the rest of the package work with the folded
coefficients only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rivercomp.errors import ConfigError
from rivercomp.grid import make_grid
from rivercomp.model import (
    ModelParams,
    build_effective_params,
    classify_regime,
    raw_reaction,
    reaction,
)

GRID = make_grid(1, 0.0, 1.0, 32)


def params(**kw):
    base = dict(d1=0.08, d2=0.07, alpha1=0.05, alpha2=0.04, mu1=0.0, mu2=0.0)
    base.update(kw)
    return ModelParams(**base)


# ---------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------


def test_fold_identity_case():
    eff = build_effective_params(params(), GRID, mu=0.0)
    assert eff.r1 == 1.0
    np.testing.assert_array_equal(eff.K1.values, eff.K.values)


def test_fold_scales_capacity_pointwise():
    eff = build_effective_params(params(mu1=0.009, mu2=0.009), GRID)
    assert eff.r1 == 1.0 - 0.009
    assert eff.r1 == pytest.approx(0.991)
    np.testing.assert_array_equal(eff.K1.values, eff.K.values * eff.r1)
    # peak of 2 + cos(pi*x) is 3, folded to 2.973
    assert eff.K1.values.max() == pytest.approx(0.991 * 3.0, rel=1e-3)


def test_fold_rejects_bad_fractions():
    with pytest.raises(ConfigError):
        build_effective_params(params(), GRID, mu=1.0)
    with pytest.raises(ConfigError):
        build_effective_params(params(), GRID, mu=-0.1)
    with pytest.raises(ConfigError):
        ModelParams(d1=1.0, d2=1.0, alpha1=0.0, alpha2=0.0, mu1=1.2, mu2=1.2)


def test_fold_needs_single_fraction():
    p = params(mu1=0.3, mu2=0.1)
    with pytest.raises(ConfigError):
        build_effective_params(p, GRID)
    # explicit mu works even with unequal per-species fractions
    eff = build_effective_params(p, GRID, mu=0.1)
    assert eff.r1 == 0.9


def test_capacity_must_stay_positive():
    with pytest.raises(ConfigError):
        build_effective_params(params(K_expr="cos(pi*x)"), GRID, mu=0.0)


def test_growth_zero_at_capacity_and_at_zero_density():
    eff = build_effective_params(params(mu1=0.3, mu2=0.3), GRID)
    K1 = eff.K1.values
    u = 0.25 * K1
    v = K1 - u
    np.testing.assert_allclose(reaction(u, v, eff), 0.0, atol=1e-16)
    np.testing.assert_array_equal(reaction(np.zeros_like(K1), v, eff), 0.0)


def test_growth_hand_value():
    # r=1, mu=0.009, K=3 everywhere, u=1, v=0.5: exact rational arithmetic
    # gives r1*(1 - 1.5/(3*r1)) = 491/1000.
    g = make_grid(1, 0.0, 1.0, 8)
    eff = build_effective_params(params(mu1=0.009, mu2=0.009, K_expr="3"), g)
    u = np.ones(8)
    v = np.full(8, 0.5)
    np.testing.assert_allclose(reaction(u, v, eff), 0.491, rtol=1e-14)


@settings(max_examples=300, deadline=None)
@given(
    u=st.floats(0.0, 10.0),
    v=st.floats(0.0, 10.0),
    r=st.floats(0.1, 5.0),
    K=st.floats(0.5, 10.0),
    mu=st.floats(0.0, 0.999),
)
def test_fold_matches_raw_to_rounding(u, v, r, K, mu):
    """The fold is algebraic: both reaction forms agree to a few ulps."""
    ru = np.array([r])
    Ku = np.array([K])
    uu = np.array([u])
    vv = np.array([v])
    raw = raw_reaction(uu, vv, ru, Ku, mu)[0]

    g = make_grid(1, 0.0, 1.0, 8)
    p = ModelParams(d1=1.0, d2=1.0, alpha1=0.0, alpha2=0.0, mu1=mu, mu2=mu, r_expr=repr(r), K_expr=repr(K))
    eff = build_effective_params(p, g, mu=mu)
    folded = reaction(np.full(8, u), np.full(8, v), eff)[0]

    scale = abs(r * u) * (1.0 + mu) + abs(r * u * (u + v) / K)
    assert abs(raw - folded) <= 4.0 * np.spacing(max(scale, 1e-300))


# ---------------------------------------------------------------------
# regimes
# ---------------------------------------------------------------------


def test_regime_weak_harvest_set():
    rep = classify_regime(params())
    assert rep.ratio1 == pytest.approx(0.625)
    assert rep.ratio2 == pytest.approx(0.04 / 0.07)
    assert rep.holds_c1


def test_regime_slow_movement_set():
    rep = classify_regime(params(d1=0.002, d2=0.001, alpha1=0.001, alpha2=0.0006))
    assert rep.ratio1 == pytest.approx(0.5)
    assert rep.ratio2 == pytest.approx(0.6)
    assert not rep.holds_c1


def test_regime_tie_lands_on_first_branch():
    rep = classify_regime(params(d1=1.0, d2=1.0, alpha1=0.3, alpha2=0.3))
    assert rep.holds_c1


@settings(max_examples=300, deadline=None)
@given(
    d1=st.floats(1e-3, 10.0),
    d2=st.floats(1e-3, 10.0),
    a1=st.floats(0.0, 10.0),
    a2=st.floats(0.0, 10.0),
)
def test_regime_flags_partition(d1, d2, a1, a2):
    rep = classify_regime(params(d1=d1, d2=d2, alpha1=a1, alpha2=a2))
    assert rep.holds_c1 == (rep.ratio1 >= rep.ratio2)


def test_ratio_chain_under_orderings():
    # When d1 > d2, alpha1 > alpha2 and the first ratio dominates, the
    # difference quotient (a1-a2)/(d1-d2) sits above both ratios.  1000
    # random draws; the inequality is a rearrangement, so a tiny rounding
    # slack suffices.
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 1000:
        d2, dd, a2, da = rng.uniform(0.01, 2.0, size=4)
        d1, a1 = d2 + dd, a2 + da
        rep = classify_regime(params(d1=d1, d2=d2, alpha1=a1, alpha2=a2))
        if not rep.holds_c1:
            continue
        chain = (a1 - a2) / (d1 - d2)
        slack = 1e-12 * chain
        assert chain >= rep.ratio1 - slack
        assert chain >= rep.ratio2 - slack
        checked += 1


def test_nonpositive_diffusion_rejected():
    with pytest.raises(ConfigError):
        params(d1=0.0)
    with pytest.raises(ConfigError):
        params(d2=-1.0)
