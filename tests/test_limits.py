"""Regime classification, limit constants, and limit distribution functions."""

import math

import numpy as np
import pytest

from erwlab import (
    WalkParams,
    classify_regime,
    limit_cdf,
    limit_moments,
    window_variance_conjectured_limit,
    window_variance_fixed_last_m,
    zeros_limit_mean,
)


def test_classify_thresholds_two_valued():
    assert classify_regime(WalkParams(p=0.6)).regime == "diffusive"
    assert classify_regime(WalkParams(p=0.6)).normalization == "sqrt(m)/n"
    crit = classify_regime(WalkParams(p=0.75))
    assert crit.regime == "critical"
    assert crit.normalization == "sqrt(m/log m)/n"
    sup = classify_regime(WalkParams(p=0.8))
    assert sup.regime == "superdiffusive"
    assert sup.normalization == "m^(2(1-p))/n"


def test_classify_thresholds_delayed():
    rep = classify_regime(WalkParams(p=0.8, q=0.1, r=0.1))
    assert rep.regime == "superdiffusive"
    assert rep.drift == pytest.approx(0.7)
    assert rep.normalization == "m^(1+q-p)/n"
    assert classify_regime(WalkParams(p=0.55, q=0.05, r=0.4)).regime == "critical"
    assert classify_regime(WalkParams(p=0.5, q=0.2, r=0.3)).regime == "diffusive"


def test_degenerate_note_at_symmetric_p():
    rep = classify_regime(WalkParams(p=0.5))
    assert rep.regime == "diffusive"
    assert "degenerate" in rep.note


def test_limit_moments_diffusive_constant():
    rep = limit_moments(WalkParams(p=0.6))
    assert rep.limit_mean == 0.0
    assert rep.limit_var == pytest.approx(1.0 / 15.0, rel=1e-14)
    assert rep.cdf_available


def test_limit_moments_critical_constant():
    rep = limit_moments(WalkParams(p=0.75))
    assert rep.limit_var == pytest.approx(0.25, rel=1e-14)


def test_limit_moments_superdiffusive_mean_and_var():
    rep = limit_moments(WalkParams(p=0.85))
    assert rep.limit_mean == pytest.approx(0.49 / math.gamma(1.7), rel=1e-13)
    assert rep.limit_mean == pytest.approx(0.5392682, abs=1e-6)
    want_var = 0.49 * (1.0 / (0.4 * math.gamma(1.4)) - 0.49 / math.gamma(1.7) ** 2)
    assert rep.limit_var == pytest.approx(want_var, rel=1e-13)
    assert not rep.cdf_available
    # the first step sets E L = (2s - 1) / Gamma(2p); E L^2 does not depend on it
    rep = limit_moments(WalkParams(p=0.85, s=0.2))
    assert rep.limit_mean == pytest.approx(0.7 * -0.6 / math.gamma(1.7), rel=1e-13)
    want_var = 0.49 * (1.0 / (0.4 * math.gamma(1.4)) - 0.36 / math.gamma(1.7) ** 2)
    assert rep.limit_var == pytest.approx(want_var, rel=1e-13)


def test_limit_moments_delayed_diffusive_total_variance():
    rep = limit_moments(WalkParams(p=0.5, q=0.2, r=0.3))
    assert rep.limit_var == pytest.approx(0.21**2 / 0.4, rel=1e-13)
    assert rep.component_var == pytest.approx(0.09 * 0.7 / 0.4, rel=1e-13)
    assert rep.atom == pytest.approx(0.3)
    # mixture consistency: weight * component = total
    assert (1 - rep.atom) * rep.component_var == pytest.approx(rep.limit_var, rel=1e-13)


def test_limit_moments_delayed_critical():
    rep = limit_moments(WalkParams(p=0.6, q=0.1, r=0.3))
    assert rep.regime == "critical"
    assert rep.limit_var == pytest.approx(0.25 * 0.7**2, rel=1e-13)
    assert rep.component_var == pytest.approx(0.25 * 0.7, rel=1e-13)


def test_delayed_formulas_continuous_in_r_at_zero():
    for p in (0.35, 0.6, 0.7):
        two_valued = limit_moments(WalkParams(p=p))
        delayed = limit_moments(WalkParams(p=p, q=1 - p, r=0.0))
        assert delayed.limit_var == pytest.approx(two_valued.limit_var, rel=1e-12)
    # superdiffusive moments too
    a = limit_moments(WalkParams(p=0.85))
    b = limit_moments(WalkParams(p=0.85, q=0.15, r=0.0))
    assert a.limit_mean == pytest.approx(b.limit_mean, rel=1e-12)
    assert a.limit_var == pytest.approx(b.limit_var, rel=1e-12)


def test_alpha_formulas_factored_equals_expanded():
    for p in (0.3, 0.5, 0.6, 0.7):
        for alpha in (0.1, 0.25, 0.5, 0.75, 1.0):
            rep = limit_moments(WalkParams(p=p), alpha)
            a = 2 * p - 1
            expanded = (a * a * (1 - alpha) ** 2 + 2 * a * alpha * (1 - alpha)
                        + alpha * alpha) / (3 - 4 * p) + alpha * (1 - alpha)
            assert rep.limit_var == pytest.approx(expanded, rel=1e-12)


def test_alpha_formulas_collapse_to_full_memory_at_one():
    assert limit_moments(WalkParams(p=0.6), 1.0).limit_var == pytest.approx(
        1.0 / 0.6, rel=1e-13)
    assert limit_moments(WalkParams(p=0.75), 1.0).limit_var == pytest.approx(1.0)
    sup = limit_moments(WalkParams(p=0.85), 1.0)
    base = limit_moments(WalkParams(p=0.85))
    var_L = 1.0 / (0.4 * math.gamma(1.4)) - 0.49 / math.gamma(1.7) ** 2
    assert sup.limit_var == pytest.approx(var_L, rel=1e-12)
    assert base.limit_var == pytest.approx(0.49 * var_L, rel=1e-12)


def test_alpha_symmetric_walk_variance_is_alpha():
    for alpha in (0.25, 0.5, 1.0):
        rep = limit_moments(WalkParams(p=0.5), alpha)
        assert rep.limit_var == pytest.approx(alpha, rel=1e-13)


def test_alpha_value_from_moment_check():
    rep = limit_moments(WalkParams(p=0.6), 0.5)
    assert rep.limit_var == pytest.approx(0.85, rel=1e-13)


def test_alpha_rejected_for_delayed():
    with pytest.raises(ValueError):
        limit_moments(WalkParams(p=0.5, q=0.2, r=0.3), 0.5)
    with pytest.raises(ValueError):
        limit_moments(WalkParams(p=0.6), 1.5)


def test_limit_cdf_normal():
    cdf = limit_cdf(limit_moments(WalkParams(p=0.6)))
    assert cdf(0.0) == pytest.approx(0.5, abs=1e-14)
    assert cdf(50.0) == pytest.approx(1.0, abs=1e-12)
    assert cdf(-50.0) == pytest.approx(0.0, abs=1e-12)
    xs = np.linspace(-2, 2, 101)
    vals = [cdf(x) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert cdf.atoms() == ()


def test_limit_cdf_delayed_mixture_atom():
    rep = limit_moments(WalkParams(p=0.5, q=0.2, r=0.3))
    cdf = limit_cdf(rep)
    jump = cdf(0.0) - cdf(-1e-9)
    assert jump == pytest.approx(0.3, abs=1e-6)
    assert cdf.atoms() == ((0.0, pytest.approx(0.3)),)
    assert cdf(1e9) == pytest.approx(1.0)


def test_limit_cdf_unavailable_for_superdiffusive():
    with pytest.raises(ValueError):
        limit_cdf(limit_moments(WalkParams(p=0.85)))


def test_zeros_limit_mean_values():
    assert zeros_limit_mean(0.5) == pytest.approx(0.5 / math.sqrt(math.pi), rel=1e-13)
    assert zeros_limit_mean(0.5) == pytest.approx(0.282095, abs=1e-6)
    assert zeros_limit_mean(0.75) == pytest.approx(0.25 / math.gamma(0.25), rel=1e-13)
    assert zeros_limit_mean(0.75) == pytest.approx(0.0689539, abs=1e-6)
    assert zeros_limit_mean(1e-9) == pytest.approx(1.0, abs=1e-6)
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            zeros_limit_mean(bad)


def test_window_variance_values():
    assert window_variance_fixed_last_m(0.6, 10) == pytest.approx(10.2 / 6.56, rel=1e-13)
    assert window_variance_fixed_last_m(0.6, 10) == pytest.approx(1.554878, abs=1e-6)
    assert window_variance_fixed_last_m(0.5, 1) == pytest.approx(1.0, rel=1e-13)
    assert window_variance_conjectured_limit(0.6) == pytest.approx(1.5625, rel=1e-13)


def test_window_variance_large_m_limit():
    got = window_variance_fixed_last_m(0.6, 10**6)
    assert got == pytest.approx(window_variance_conjectured_limit(0.6), rel=1e-4)


def test_window_variance_domain():
    with pytest.raises(ValueError):
        window_variance_fixed_last_m(1.0, 10)
    with pytest.raises(ValueError):
        window_variance_fixed_last_m(0.6, 0)
