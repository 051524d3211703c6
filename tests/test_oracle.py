"""Exact enumeration, closed-form moments, and the log-gamma ratio."""

import hashlib
import math

import mpmath
import numpy as np
import pytest

from erwlab import (
    EnumerationCapError,
    GrowthRule,
    MemorySchedule,
    WalkParams,
    enumerate_pmf,
    exact_mean_nonzeros,
    exact_moments_full,
    exact_moments_increasing,
    growing_mean_profile,
    log_gamma_ratio,
)


# ---------------------------------------------------------------------------
# log-gamma ratio
# ---------------------------------------------------------------------------


def test_log_gamma_ratio_identities():
    assert log_gamma_ratio(3.7, 3.7) == 0.0
    assert log_gamma_ratio(2.5, 1.5) == pytest.approx(math.log(1.5), rel=1e-14)
    assert log_gamma_ratio(3.2, 1.2) == pytest.approx(math.log(2.64), rel=1e-14)


def test_log_gamma_ratio_against_mpmath():
    mpmath.mp.dps = 40
    cases = [
        (0.3, 0.8), (1.7, 0.25), (7.5, 2.0), (19.0, 21.5),
        (123.4, 120.0), (1e4 + 0.7, 1e4), (3.2e6, 3.2e6 - 1.4),
        (1e9 + 0.7, 1e9), (1e9, 12.5), (2.5e8 + 0.2, 2.5e8),
    ]
    for a, b in cases:
        want = float(mpmath.loggamma(a) - mpmath.loggamma(b))
        got = log_gamma_ratio(a, b)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13), (a, b)


def test_log_gamma_ratio_domain():
    with pytest.raises(ValueError):
        log_gamma_ratio(0.0, 1.0)
    with pytest.raises(ValueError):
        log_gamma_ratio(1.0, -2.0)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_first_step_law():
    pmf = enumerate_pmf(WalkParams(p=0.7), MemorySchedule.full(), 1)
    assert pmf.s_marginal() == pytest.approx({1: 0.7, -1: 0.3}, abs=1e-15)
    pmf = enumerate_pmf(WalkParams(p=0.5, q=0.2, r=0.3), MemorySchedule.full(), 1)
    assert pmf.s_marginal() == pytest.approx({1: 0.5, 0: 0.3, -1: 0.2}, abs=1e-15)


def test_enumerate_two_steps_full_memory():
    # X_2 repeats X_1 with probability p, so by hand:
    #   P(S=2) = s p, P(S=0) = s(1-p) + (1-s)(1-p), P(S=-2) = (1-s) p
    pmf = enumerate_pmf(WalkParams(p=0.7), MemorySchedule.full(), 2)
    assert pmf.s_marginal() == pytest.approx({2: 0.49, 0: 0.30, -2: 0.21}, abs=1e-15)
    # cross-check the mean against the closed form (2p-1)(2p) at m = 2
    es, _, _ = pmf.moments()
    assert es == pytest.approx(exact_moments_full(0.7, 2)[0], abs=1e-14)
    assert es == pytest.approx(0.56, abs=1e-14)


@pytest.mark.parametrize("params", [
    WalkParams(p=0.7),
    WalkParams(p=0.3),
    WalkParams(p=0.5, q=0.2, r=0.3),
    WalkParams(p=0.25, q=0.25, r=0.5),
])
@pytest.mark.parametrize("schedule", [
    MemorySchedule.full(),
    MemorySchedule.first_increasing(),
    MemorySchedule.first_fixed(2),
    MemorySchedule.last_fixed(2),
    MemorySchedule.first_plus_recent(growth=GrowthRule(), recent=1),
])
def test_enumeration_mass_and_support(params, schedule):
    n = 8 if params.delayed else 10
    pmf = enumerate_pmf(params, schedule, n)
    assert pmf.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert all(m >= 0.0 for m in pmf.mass)
    for (s, nstar) in pmf.support:
        assert abs(s) <= nstar <= n
        if not params.delayed:
            assert nstar == n
            assert (s - n) % 2 == 0


# sha256 of "S N* mass.hex()" lines over the support, in support order
@pytest.mark.parametrize("params, schedule, n, sha256", [
    (WalkParams(p=0.7), MemorySchedule.first_increasing(), 12,
     "e31ea5c27b353d1fbe75c3bece2739cbb787f8c40ca5560c562a2194976ce82b"),
    (WalkParams(p=0.6), MemorySchedule.last_fixed(3), 12,
     "7e518ed32aae587ffd7e3f848e8525441b0ebbe5d4e0a0aa91cd0090b740a8c3"),
    (WalkParams(p=0.5, q=0.2, r=0.3), MemorySchedule.first_fixed(3), 9,
     "d944723dced5fabf8e31db7d8e9035347e75eeeedc51d345f5aa59b11b57374b"),
    (WalkParams(p=0.6, q=0.1, r=0.3), MemorySchedule.first_plus_recent(m=2, recent=2), 9,
     "17275c5c46ee187c909b237cf3be577119881d800e519c1d8fa0dc87301e7fa1"),
], ids=["short-many", "last-fixed", "delayed-first-fixed", "delayed-first-plus-recent"])
def test_enumeration_reproduces_its_pinned_bits(params, schedule, n, sha256):
    pmf = enumerate_pmf(params, schedule, n)
    lines = "".join(f"{s} {nz} {m.hex()}\n" for (s, nz), m in zip(pmf.support, pmf.mass))
    assert hashlib.sha256(lines.encode()).hexdigest() == sha256


def test_enumeration_caps():
    with pytest.raises(EnumerationCapError):
        enumerate_pmf(WalkParams(p=0.6), MemorySchedule.full(), 17)
    with pytest.raises(EnumerationCapError):
        enumerate_pmf(WalkParams(p=0.5, q=0.2, r=0.3), MemorySchedule.full(), 11)


def _binary_enumerate(p, s, schedule, n):
    """Independent two-valued path enumerator: P(step=+1) = (1 + a*mean)/2."""
    a = 2 * p - 1
    out = {}
    stack = [((1,), s), ((-1,), 1 - s)]
    while stack:
        steps, prob = stack.pop()
        k = len(steps)
        if k == n:
            out[sum(steps)] = out.get(sum(steps), 0.0) + prob
            continue
        b, w = schedule.split(k)
        mem = steps[:b] + steps[max(b, k - w):]
        p_plus = 0.5 * (1.0 + a * sum(mem) / len(mem))
        if p_plus > 0.0:
            stack.append((steps + (1,), prob * p_plus))
        if p_plus < 1.0:
            stack.append((steps + (-1,), prob * (1.0 - p_plus)))
    return out


@pytest.mark.parametrize("schedule", [
    MemorySchedule.full(),
    MemorySchedule.first_increasing(),
    MemorySchedule.last_fixed(3),
])
def test_ternary_engine_matches_dedicated_binary_path(schedule):
    for p in (0.3, 0.7, 0.55):
        params = WalkParams(p=p)
        pmf = enumerate_pmf(params, schedule, 10)
        want = _binary_enumerate(p, params.s, schedule, 10)
        got = pmf.s_marginal()
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], abs=1e-13)


def test_symmetric_walk_is_binomial():
    pmf = enumerate_pmf(WalkParams(p=0.5), MemorySchedule.first_increasing(), 10)
    marg = pmf.s_marginal()
    for k in range(11):
        s = 2 * k - 10
        assert marg[s] == pytest.approx(math.comb(10, k) / 2**10, abs=1e-12)


def test_one_step_mean_identity_on_enumerated_laws():
    # E S_{n+1} - E S_n = (p - q) E(S_{m_n}) / m_n, with every term enumerated
    sched = MemorySchedule.first_increasing()
    for params in (WalkParams(p=0.7), WalkParams(p=0.5, q=0.2, r=0.3)):
        for n in (4, 6, 8):
            m = sched.block_size(n)
            e_n = enumerate_pmf(params, sched, n).moments()[0]
            e_next = enumerate_pmf(params, sched, n + 1).moments()[0]
            e_m = enumerate_pmf(params, sched, m).moments()[0]
            assert e_next - e_n == pytest.approx(params.drift * e_m / m, abs=1e-12)


# ---------------------------------------------------------------------------
# closed-form moments
# ---------------------------------------------------------------------------


def test_moments_full_small_cases():
    for p in (0.3, 0.6, 0.75, 0.9):
        mean, second = exact_moments_full(p, 1)
        assert mean == pytest.approx(2 * p - 1, rel=1e-14)
        assert second == 1.0
    assert exact_moments_full(0.75, 2)[0] == pytest.approx(0.75, rel=1e-14)


def test_moments_full_vs_enumeration():
    for p in (0.3, 0.5, 0.6, 0.75, 0.9):
        pmf = enumerate_pmf(WalkParams(p=p), MemorySchedule.full(), 12)
        es, es2, _ = pmf.moments()
        mean, second = exact_moments_full(p, 12)
        assert es == pytest.approx(mean, abs=1e-10)
        assert es2 == pytest.approx(second, abs=1e-10)


def test_moments_full_harmonic_identity_at_critical_p():
    # at p = 3/4 the second-moment recursion telescopes to m * H_m exactly
    for m in (1, 2, 10, 137, 1000):
        h = sum(1.0 / k for k in range(1, m + 1))
        assert exact_moments_full(0.75, m)[1] == pytest.approx(m * h, rel=1e-12)


def test_moments_full_symmetric_case():
    mean, second = exact_moments_full(0.5, 500)
    assert mean == 0.0
    assert second == pytest.approx(500.0, rel=1e-12)


def test_two_epoch_reduces_to_full_at_m_equals_n():
    params = WalkParams(p=0.65)
    rep = exact_moments_increasing(params, MemorySchedule.full(), 9)
    mean, second = exact_moments_full(0.65, 9)
    assert rep.mean_Sn == pytest.approx(mean, rel=1e-14)
    assert rep.second_Sn == pytest.approx(second, rel=1e-14)
    assert rep.m == 9


def test_two_epoch_matches_frozen_block_enumeration():
    # the closed forms describe the walk with memory {1..m} from time m on,
    # which is exactly the first-fixed schedule; with the recent-step augment
    # the joint recursion in (block sum, S, last steps) is exact as well
    cases = [(WalkParams(p=0.7), MemorySchedule.first_fixed(3), 10)]
    for m in (2, 3):
        for recent in (1, 2):
            for p in (0.3, 0.7):
                sched = MemorySchedule.first_plus_recent(m=m, recent=recent)
                cases += [(WalkParams(p=p), sched, n) for n in (m, m + 1, 7, 12)]
    for params, sched, n in cases:
        pmf = enumerate_pmf(params, sched, n)
        es, es2, _ = pmf.moments()
        rep = exact_moments_increasing(params, sched, n)
        assert es == pytest.approx(rep.mean_Sn, abs=1e-10), (sched, params.p, n)
        assert es2 == pytest.approx(rep.second_Sn, abs=1e-10), (sched, params.p, n)


@pytest.mark.parametrize("schedule", [
    MemorySchedule.first_fixed(3),
    MemorySchedule.full(),
    MemorySchedule.first_plus_recent(m=2, recent=1),
])
def test_two_epoch_mean_follows_first_step_law(schedule):
    # E X_1 = 2s - 1 carries through every later mean; X_1^2 = 1 whatever s
    for p, s in ((0.7, 0.9), (0.5, 0.8), (0.3, 0.1), (0.6, 0.0)):
        params = WalkParams(p=p, s=s)
        for n in (1, 2, 5, 8):
            es, es2, _ = enumerate_pmf(params, schedule, n).moments()
            rep = exact_moments_increasing(params, schedule, n)
            assert es == pytest.approx(rep.mean_Sn, abs=1e-10), (p, s, n)
            assert es2 == pytest.approx(rep.second_Sn, abs=1e-10), (p, s, n)


def test_two_epoch_requires_first_block():
    with pytest.raises(ValueError):
        exact_moments_increasing(WalkParams(p=0.6), MemorySchedule.last_fixed(5), 100)
    # the augmented recursion would rest on the idealised delayed block moments
    with pytest.raises(ValueError, match="idealised"):
        exact_moments_increasing(WalkParams(p=0.5, q=0.2, r=0.3),
                                 MemorySchedule.first_plus_recent(m=5, recent=1), 100)


def test_delayed_formulas_reduce_to_two_valued_at_r_zero():
    # same code path evaluated with r = 0 must reproduce the two-valued forms
    sched = MemorySchedule.first_fixed(50)
    for p in (0.3, 0.6, 0.7):
        a = WalkParams(p=p, q=1 - p, r=0.0)
        rep = exact_moments_increasing(a, sched, 2000)
        mean, second = exact_moments_full(p, 50)
        d = 2000 - 50
        drift = 2 * p - 1
        want_mean = mean * (1 + d * drift / 50)
        assert rep.mean_Sn == pytest.approx(want_mean, rel=1e-12)
        amp = 50**2 + 2 * drift * 50 * d + drift**2 * d * (d - 1)
        want_second = second * amp / 50**2 + d
        assert rep.second_Sn == pytest.approx(want_second, rel=1e-12)


def test_mean_nonzeros_small_cases_and_enumeration():
    params = WalkParams(p=0.25, q=0.25, r=0.5)
    assert exact_mean_nonzeros(params, 1, 1) == pytest.approx(0.5, rel=1e-13)
    assert exact_mean_nonzeros(params, 2, 2) == pytest.approx(0.75, rel=1e-13)
    # full-memory mean matches ternary enumeration exactly
    for n in (3, 5, 7):
        en = enumerate_pmf(params, MemorySchedule.full(), n).moments()[2]
        assert exact_mean_nonzeros(params, n, n) == pytest.approx(en, abs=1e-12)
    # frozen-block mean matches enumeration of the first-fixed schedule
    sched = MemorySchedule.first_fixed(2)
    for n in (4, 6):
        en = enumerate_pmf(params, sched, n).moments()[2]
        assert exact_mean_nonzeros(params, 2, n) == pytest.approx(en, abs=1e-12)


def test_mean_nonzeros_r_zero_is_n():
    assert exact_mean_nonzeros(WalkParams(p=0.6), 10, 1000) == 1000.0


def test_growing_mean_profile_matches_enumeration():
    sched = MemorySchedule.first_increasing()
    for params in (WalkParams(p=0.7), WalkParams(p=0.5, q=0.2, r=0.3)):
        rows = growing_mean_profile(params, sched, [5, 8])
        for n, mean, nz in rows:
            es, _, en = enumerate_pmf(params, sched, n).moments()
            assert mean == pytest.approx(es, abs=1e-12)
            assert nz == pytest.approx(en, abs=1e-12)


def test_growing_mean_profile_rejects_other_schedules():
    with pytest.raises(ValueError):
        growing_mean_profile(WalkParams(p=0.6), MemorySchedule.last_fixed(3), [10])
