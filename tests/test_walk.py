"""Step law, memory schedules, and single-trajectory simulation."""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erwlab import (
    EnsembleConfig,
    GrowthRule,
    MemorySchedule,
    WalkParams,
    make_run_stream,
    run_ensemble,
    simulate_paths,
)
from erwlab.ensemble import _count_dtype
from erwlab.walk import _cut_points
from reference import cut_points_from_sums, memory_view


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_params_basic():
    pr = WalkParams(p=0.7)
    assert pr.q == pytest.approx(0.3, abs=1e-15)
    assert pr.r == 0.0
    assert pr.s == 0.7
    assert not pr.delayed
    assert pr.drift == pytest.approx(0.4, abs=1e-15)


def test_params_delayed_triple():
    pr = WalkParams(p=0.5, q=0.2, r=0.3)
    assert pr.delayed
    assert pr.p + pr.q + pr.r == 1.0


@pytest.mark.parametrize("kwargs", [
    dict(p=0.0),
    dict(p=1.0),
    dict(p=0.5, r=1.0),          # r = 1 forces p = 0, rejected
    dict(p=0.5, q=0.1, r=0.3),   # does not sum to 1
    dict(p=0.9, q=-0.1, r=0.2),
    dict(p=0.5, s=1.5),
])
def test_params_rejections(kwargs):
    with pytest.raises(ValueError):
        WalkParams(**kwargs)


# ---------------------------------------------------------------------------
# growth rules and schedules
# ---------------------------------------------------------------------------


def test_growth_rule_validation():
    with pytest.raises(ValueError):
        GrowthRule(kind="power", beta=0.0)
    with pytest.raises(ValueError):
        GrowthRule(kind="power", beta=1.5)
    with pytest.raises(ValueError):
        GrowthRule(kind="exp")
    with pytest.raises(ValueError):
        GrowthRule(c=-1.0)


@pytest.mark.parametrize("sched", [
    MemorySchedule.full(),
    MemorySchedule.first_fixed(5),
    MemorySchedule.first_increasing(GrowthRule(kind="power", c=1.0, beta=0.5)),
    MemorySchedule.first_increasing(GrowthRule(kind="power", c=3.0, beta=0.3)),
    MemorySchedule.first_increasing(GrowthRule(kind="power", c=0.5, beta=1.0)),
    MemorySchedule.first_increasing(GrowthRule(kind="log", c=2.0)),
    MemorySchedule.last_fixed(4),
    MemorySchedule.last_increasing(GrowthRule(kind="power", c=1.0, beta=0.6)),
])
def test_block_size_bounds_and_monotone(sched):
    prev = 0
    for n in range(1, 2000):
        m = sched.block_size(n)
        assert 1 <= m <= n
        assert m >= prev
        assert m - prev <= 1 or prev == 0
        prev = m


def test_alpha_schedule_tracks_fraction():
    sched = MemorySchedule.first_increasing(GrowthRule(kind="power", c=0.5, beta=1.0))
    assert sched.block_size(10**6) == pytest.approx(0.5 * 10**6, rel=1e-5)


def test_frozen_at_horizon():
    sched = MemorySchedule.first_increasing()
    frozen = sched.frozen_at_horizon(10_000)
    assert frozen.variant == "first-fixed"
    assert frozen.m == 100
    aug = MemorySchedule.first_plus_recent(growth=GrowthRule(), recent=2)
    frozen_aug = aug.frozen_at_horizon(10_000)
    assert frozen_aug.variant == "first-plus-recent"
    assert frozen_aug.m == 100 and frozen_aug.recent == 2


@pytest.mark.parametrize("kwargs", [
    dict(variant="first-increasing", growth=GrowthRule(), recent=2),
    dict(variant="last-fixed", m=3, recent=1),
    dict(variant="first-fixed", m=3, growth=GrowthRule()),
    dict(variant="last-fixed", m=3, growth=GrowthRule()),
    dict(variant="full", m=5),
    dict(variant="first-increasing", growth=GrowthRule(), m=5),
    dict(variant="last-increasing", growth=GrowthRule(), m=5),
    dict(variant="first-plus-recent", m=5, growth=GrowthRule(), recent=1),
])
def test_schedule_rejects_fields_its_variant_ignores(kwargs):
    # first-increasing with recent=2 was once simulated with the recent steps
    # by the chunk kernel and without them by the enumeration
    with pytest.raises(ValueError):
        MemorySchedule(**kwargs)


def _defined_memory(schedule, n):
    """M_n spelled out per variant, as the MemorySchedule docstring defines it."""
    m = schedule.block_size(n)
    if schedule.variant == "full":
        return list(range(1, n + 1))
    if schedule.variant in ("last-fixed", "last-increasing"):
        return list(range(n - m + 1, n + 1))
    idx = set(range(1, m + 1))
    if schedule.variant == "first-plus-recent":
        idx |= set(range(max(1, n - schedule.recent + 1), n + 1))
    return sorted(idx)


@pytest.mark.parametrize("sched", [
    MemorySchedule.full(),
    MemorySchedule.first_fixed(5),
    MemorySchedule.first_increasing(),
    MemorySchedule.first_increasing(GrowthRule(kind="log", c=2.8)),  # m_n: 1, 1, 3
    MemorySchedule.first_plus_recent(m=4, recent=3),
    MemorySchedule.first_plus_recent(growth=GrowthRule(), recent=2),
    MemorySchedule.last_fixed(4),
    MemorySchedule.last_increasing(GrowthRule(kind="power", c=1.0, beta=0.6)),
    MemorySchedule.last_increasing(GrowthRule(kind="log", c=2.8)),
])
def test_split_matches_the_definition(sched):
    for n in range(1, 201):
        b, w = sched.split(n)
        want = _defined_memory(sched, n)
        assert list(range(1, b + 1)) + list(range(max(b, n - w) + 1, n + 1)) == want, n


# ---------------------------------------------------------------------------
# memory views
# ---------------------------------------------------------------------------


def _prefix_sums(steps):
    return list(accumulate(steps, initial=0)), list(accumulate(map(abs, steps), initial=0))


def test_memory_view_first_increasing_all_ones():
    v = memory_view(*_prefix_sums([1] * 9), MemorySchedule.first_increasing(), 9)
    assert v == (3, 3, 3)


def test_memory_view_plus_recent_size():
    sched = MemorySchedule.first_plus_recent(growth=GrowthRule(), recent=1)
    assert memory_view(*_prefix_sums([1] * 9), sched, 9)[0] == 4


def test_memory_view_last_window():
    v = memory_view(*_prefix_sums([1, -1, 1, 1, -1]), MemorySchedule.last_fixed(2), 5)
    assert v == (2, 0, 2)


def test_memory_view_needs_time():
    with pytest.raises(ValueError):
        memory_view(*_prefix_sums([1]), MemorySchedule.full(), 0)


# ---------------------------------------------------------------------------
# one-step law
# ---------------------------------------------------------------------------


def _exact_step_law(p, q, r, steps):
    """Independent oracle: average the coin law over each remembered step."""
    m = len(steps)
    pp = Fraction(0)
    pz = Fraction(0)
    pm = Fraction(0)
    for x in steps:
        if x == 1:
            pp += p
            pm += q
            pz += r
        elif x == -1:
            pp += q
            pm += p
            pz += r
        else:
            pz += 1
    return pp / m, pz / m, pm / m


def _step_law(params, size, plus, minus):
    """(P_plus, P_zero, P_minus) from _cut_points: t1, t2 - t1 and 1 - t2."""
    t1, t2 = _cut_points(params.p, params.q, params.r, params.p + params.q, float(size),
                         plus, minus)
    return t1, t2 - t1, 1.0 - t2


def test_step_distribution_two_valued_example():
    got = _step_law(WalkParams(p=0.7), 4, 3, None)
    want = _exact_step_law(Fraction(7, 10), Fraction(3, 10), Fraction(0), [1, 1, 1, -1])
    assert got[0] == pytest.approx(float(want[0]), abs=1e-15)
    assert got == pytest.approx((0.6, 0.0, 0.4), abs=1e-15)


def test_step_distribution_symmetric_is_coin():
    # r = 0 keeps the memory free of zeros: size - plus of its steps are -1
    for plus, minus in ((4, 1), (4, 4), (1, 2)):
        for counts in ((plus, minus), (plus, None)):
            assert _step_law(WalkParams(p=0.5), plus + minus, *counts) == pytest.approx(
                (0.5, 0.0, 0.5), abs=1e-15)


def test_step_distribution_delayed_example():
    want = _exact_step_law(Fraction(1, 2), Fraction(1, 5), Fraction(3, 10), [1, -1, 0])
    assert want == (Fraction(7, 30), Fraction(16, 30), Fraction(7, 30))
    got = _step_law(WalkParams(p=0.5, q=0.2, r=0.3), 3, 1, 1)
    assert got == pytest.approx(tuple(float(x) for x in want), abs=1e-15)


def test_step_distribution_simplex_and_mean_identity():
    rng = np.random.default_rng(1)
    for _ in range(300):
        pi = Fraction(rng.integers(1, 99)), Fraction(rng.integers(0, 99))
        p = pi[0] / 100
        r = min(pi[1] / 100, 1 - p - Fraction(1, 100))
        r = max(r, Fraction(0))
        q = 1 - p - r
        size = int(rng.integers(1, 40))
        nonzero = int(rng.integers(0, size + 1)) if r > 0 else size
        ssum = int(rng.integers(-nonzero, nonzero + 1))
        if (ssum - nonzero) % 2:
            ssum += 1 if ssum < nonzero else -1
        params = WalkParams(p=float(p), q=float(q), r=float(r))
        plus, minus = (nonzero + ssum) // 2, (nonzero - ssum) // 2
        pp, pz, pm = _step_law(params, size, plus, None if r == 0 else minus)
        assert 0.0 <= min(pp, pz, pm) and max(pp, pz, pm) <= 1.0 + 1e-15
        assert pp + pz + pm == pytest.approx(1.0, abs=1e-14)
        # the 0 and -1 probabilities and the conditional mean, exact in
        # rational arithmetic
        assert pz == pytest.approx(float(r + (p + q) * Fraction(size - nonzero, size)),
                                   abs=1e-14)
        assert pm == pytest.approx(float((q * plus + p * minus) / size), abs=1e-14)
        mean_rational = (p - q) * Fraction(ssum, size)
        assert pp - pm == pytest.approx(float(mean_rational), abs=1e-14)


@st.composite
def _memories(draw):
    """(params, size, counts): counts are (plus, minus) pairs of one memory
    size, with minus None for a memory without zeros at r = 0."""
    p = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    r = draw(st.just(0.0) | st.floats(0.0, 0.999).map(lambda f: f * (1.0 - p)))
    size = draw(st.integers(1, 10**6) | st.sampled_from([1, 2, 10**6]))
    counts = []
    for _ in range(draw(st.integers(1, 6))):
        plus = draw(st.integers(0, size) | st.sampled_from([0, size]))
        left = size - plus
        counts.append((plus, None if r == 0.0 else
                       draw(st.integers(0, left) | st.sampled_from([0, left]))))
    return WalkParams(p=p, r=r), size, counts


def _bits(t):
    return np.asarray(t, dtype=np.float64).view(np.uint64)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_memories())
@example((WalkParams(p=0.6), 127, [(127, None), (0, None)]))
@example((WalkParams(p=0.5, r=0.3), 10**6, [(0, 0), (10**6, 0), (0, 10**6), (3, 4)]))
def test_cut_points_from_counts_are_the_sum_and_nonzero_form_bit_for_bit(memory):
    # the kernel keeps +1 and -1 counts in the narrowest dtype that holds the
    # memory; the cut points equal those of its (sum, nonzero) form, and
    # minus=None those of a full nonzero count, for arrays and scalars alike
    params, size, counts = memory
    p, q, r, w = params.p, params.q, params.r, params.p + params.q
    dtype = _count_dtype(size)
    plus = np.array([c[0] for c in counts], dtype=dtype)
    minus = None if r == 0.0 else np.array([c[1] for c in counts], dtype=dtype)
    nz = (np.full(len(counts), size) if minus is None
          else plus.astype(np.int64) + minus).astype(np.float64)
    sm = 2.0 * plus - nz
    want = cut_points_from_sums(p, q, r, w, float(size), sm, nz)
    outs = [_cut_points(p, q, r, w, float(size), plus, minus)]
    if minus is None:
        outs.append(_cut_points(p, q, r, w, float(size), plus, size - plus.astype(np.int64)))
    for got in outs:
        for t in range(2):
            assert np.array_equal(_bits(got[t]), _bits(want[t])), t
    for j, (n_plus, n_minus) in enumerate(counts):
        scalar = _cut_points(p, q, r, w, float(size), n_plus, n_minus)
        assert _bits(scalar).tolist() == [_bits(want[t])[j] for t in range(2)], j


# ---------------------------------------------------------------------------
# first step
# ---------------------------------------------------------------------------


def _first_steps(params, seed, runs):
    cfg = EnsembleConfig(runs=runs, n_grid=(1,), master_seed=seed, scaled_statistic="none")
    return run_ensemble(params, MemorySchedule.full(), cfg).final_S


def test_first_step_degenerate():
    assert np.all(_first_steps(WalkParams(p=0.3, s=1.0), 0, 200) == 1)


def test_first_step_frequency():
    draws = _first_steps(WalkParams(p=0.7), 2024, 10**6)
    assert np.mean(draws == 1) == pytest.approx(0.7, abs=0.0014)  # 3 sigma


def test_first_step_delayed_weights():
    draws = _first_steps(WalkParams(p=0.5, q=0.2, r=0.3), 7, 60_000)
    assert np.mean(draws == 1) == pytest.approx(0.5, abs=0.01)
    assert np.mean(draws == 0) == pytest.approx(0.3, abs=0.01)
    assert np.mean(draws == -1) == pytest.approx(0.2, abs=0.01)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_trajectory_invariants_two_valued():
    params = WalkParams(p=0.6)
    sched = MemorySchedule.first_increasing()
    grid = [1, 2, 3, 10, 50, 321, 1000]
    for i in range(20):
        t = simulate_paths(params, sched, 1000, grid, 5, i, i + 1)[0]
        prev_n = 0
        prev_nstar = 0
        for n, s, nstar in t.checkpoints:
            assert abs(s) <= nstar <= n
            assert nstar == n  # r = 0: every step nonzero
            assert (s - n) % 2 == 0  # parity
            assert nstar >= prev_nstar and n > prev_n
            prev_n, prev_nstar = n, nstar


def test_trajectory_absorption_delayed():
    params = WalkParams(p=0.5, q=0.2, r=0.3)
    sched = MemorySchedule.first_increasing()
    saw_degenerate = False
    for i in range(300):
        t = simulate_paths(params, sched, 60, [5, 20, 60], 11, i, i + 1)[0]
        vals = dict((n, (s, nstar)) for n, s, nstar in t.checkpoints)
        for early, late in ((5, 20), (20, 60)):
            if vals[early][1] == 0:
                saw_degenerate = True
                assert vals[late] == (0, 0)
    assert saw_degenerate  # P(X_1 = 0) = 0.3, so 300 runs certainly hit one


def test_simulate_path_checkpoint_validation():
    params = WalkParams(p=0.6)
    with pytest.raises(ValueError):
        simulate_paths(params, MemorySchedule.full(), 10, [0, 5], 0, 0, 1)
    with pytest.raises(ValueError):
        simulate_paths(params, MemorySchedule.full(), 10, [], 0, 0, 1)
    with pytest.raises(ValueError):
        simulate_paths(params, MemorySchedule.full(), 10, [11], 0, 0, 1)
    with pytest.raises(ValueError):
        simulate_paths(params, MemorySchedule.full(), 10, [5], 0, 3, 3)


def test_simulate_paths_are_the_same_runs_as_single_paths():
    params = WalkParams(p=0.7)
    for sched in (MemorySchedule.full(), MemorySchedule.first_fixed(3)):
        paths = simulate_paths(params, sched, 3000, [10, 2500, 3000], 2024, 3, 8)
        assert paths == [simulate_paths(params, sched, 3000, [10, 2500, 3000], 2024, i, i + 1)[0]
                         for i in range(3, 8)]


def test_run_streams_are_independent_and_reproducible():
    a1 = make_run_stream(42, 0).random(5)
    a2 = make_run_stream(42, 0).random(5)
    b = make_run_stream(42, 1).random(5)
    c = make_run_stream(43, 0).random(5)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
