"""Ensemble engine: determinism, stream discipline, and fit statistics."""

import io
import math

import numpy as np
import pytest

from erwlab import (
    BudgetError,
    EnsembleConfig,
    GrowthRule,
    LimitCdf,
    MemorySchedule,
    WalkParams,
    enumerate_pmf,
    kolmogorov_quantile,
    ks_statistic,
    limit_cdf,
    limit_moments,
    make_geometric_grid,
    make_run_stream,
    moment_convergence_table,
    run_ensemble,
    scale_factor,
    schedule_alpha,
    simulate_path,
    summary_to_csv,
    total_variation,
    variance_standard_error,
)
from erwlab.ensemble import _ChunkStreams

DELAYED = WalkParams(p=0.5, q=0.2, r=0.3)


def _csv(summary) -> str:
    buf = io.StringIO()
    summary_to_csv(summary, buf)
    return buf.getvalue()


def test_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(runs=0, n_grid=(10,))
    with pytest.raises(ValueError):
        EnsembleConfig(runs=5, n_grid=(10, 10))
    with pytest.raises(ValueError):
        EnsembleConfig(runs=5, n_grid=())
    with pytest.raises(ValueError):
        EnsembleConfig(runs=5, n_grid=(0, 4))


def test_budget_refusal_mentions_estimate():
    cfg = EnsembleConfig(runs=10**6, n_grid=(10**6,), max_steps=10**9)
    with pytest.raises(BudgetError, match="1e\\+12"):
        run_ensemble(WalkParams(p=0.6), MemorySchedule.full(), cfg)


def test_worker_count_does_not_change_output():
    sched = MemorySchedule.first_increasing()
    base = dict(runs=3000, n_grid=(40, 333), master_seed=99, chunk_size=512)
    s1 = run_ensemble(DELAYED, sched, EnsembleConfig(workers=1, **base))
    s8 = run_ensemble(DELAYED, sched, EnsembleConfig(workers=8, **base))
    assert _csv(s1) == _csv(s8)
    assert np.array_equal(s1.final_S, s8.final_S)
    assert np.array_equal(s1.final_Nstar, s8.final_Nstar)
    assert np.array_equal(s1.ecdf, s8.ecdf)


def test_chunk_size_does_not_change_samples():
    sched = MemorySchedule.last_fixed(5)
    a = run_ensemble(DELAYED, sched,
                     EnsembleConfig(runs=2000, n_grid=(200,), master_seed=3, chunk_size=4096))
    b = run_ensemble(DELAYED, sched,
                     EnsembleConfig(runs=2000, n_grid=(200,), master_seed=3,
                                    chunk_size=137, workers=2))
    assert np.array_equal(a.final_S, b.final_S)
    assert _csv(a) == _csv(b)


@pytest.mark.parametrize("schedule", [
    MemorySchedule.full(),
    MemorySchedule.first_increasing(),
    MemorySchedule.first_fixed(40),
    MemorySchedule.first_plus_recent(m=40, recent=2),
    MemorySchedule.first_plus_recent(growth=GrowthRule(), recent=1),
    MemorySchedule.last_fixed(7),
    MemorySchedule.last_increasing(GrowthRule(kind="power", c=2.0, beta=0.4)),
])
def test_vectorized_engine_reproduces_scalar_paths(schedule):
    # 4103 ends on a partial Philox block, after a fill that resumes at counter 1024
    grid = (39, 41, 100, 2100, 2600, 4103)
    cfg = EnsembleConfig(runs=4, n_grid=grid, master_seed=77)
    summary = run_ensemble(DELAYED, schedule, cfg)
    for i in range(4):
        t = simulate_path(DELAYED, schedule, grid[-1], grid, make_run_stream(77, i))
        n, s, nstar = t.checkpoints[-1]
        assert s == summary.final_S[i]
        assert nstar == summary.final_Nstar[i]


@pytest.mark.parametrize("seed, run_lo", [
    (2**63 + 12345, 0),
    (2**64 - 1, 2**63),
    (-7, 2**64 - 2),
])
def test_chunk_streams_resume_each_run_stream(seed, run_lo):
    # consecutive fills continue every run's own stream, across key wrap-around
    count, sizes = 3, (8, 2048, 4, 5)
    streams = _ChunkStreams(seed, run_lo)
    out = np.full((count, 2048), np.nan)
    parts = [[] for _ in range(count)]
    for nb in sizes:
        streams.fill(out, nb)
        for j in range(count):
            parts[j].append(out[j, :nb].copy())
    for j in range(count):
        want = make_run_stream(seed, run_lo + j).random(sum(sizes))
        assert np.array_equal(np.concatenate(parts[j]), want), j


def test_chunk_streams_refuse_resume_inside_philox_block():
    streams = _ChunkStreams(5, 0)
    out = np.empty((2, 8))
    streams.fill(out, 6)
    with pytest.raises(ValueError, match="multiple of 4"):
        streams.fill(out, 4)


def test_ensemble_matches_enumeration_small():
    params = WalkParams(p=0.7)
    sched = MemorySchedule.first_increasing()
    pmf = enumerate_pmf(params, sched, 10)
    cfg = EnsembleConfig(runs=100_000, n_grid=(10,), master_seed=17, workers=2,
                         scaled_statistic="none")
    summary = run_ensemble(params, sched, cfg)
    assert total_variation(pmf.s_marginal(), summary.final_S) < 0.01


def test_degenerate_fraction_estimates_atom():
    cfg = EnsembleConfig(runs=20_000, n_grid=(400,), master_seed=5, workers=2)
    summary = run_ensemble(DELAYED, MemorySchedule.first_increasing(), cfg)
    frac = summary.final_stats().degenerate_fraction
    sigma = math.sqrt(0.3 * 0.7 / 20_000)
    assert abs(frac - 0.3) < 3 * sigma


def test_normal_regime_skew_is_small():
    # third-moment symptom of the normal limit at the diffusive parameters
    for p in (0.3, 0.6):
        sched = MemorySchedule.first_fixed(45)  # ~ sqrt(2000)
        cfg = EnsembleConfig(runs=20_000, n_grid=(2000,), master_seed=8, workers=2,
                             scaled_statistic="sqrt(m)/n")
        summary = run_ensemble(WalkParams(p=p), sched, cfg)
        assert abs(summary.final_stats().scaled_skew) < 0.1


def test_scale_factor_tags():
    params = WalkParams(p=0.85)
    assert scale_factor("sqrt(m)/n", 100, 25, params) == pytest.approx(0.05)
    assert scale_factor("sqrt(m/log m)/n", 100, 25, params) == pytest.approx(
        math.sqrt(25 / math.log(25)) / 100)
    assert scale_factor("m^(2(1-p))/n", 100, 25, params) == pytest.approx(
        25**0.3 / 100)
    assert scale_factor("m^r/n", 100, 25, WalkParams(p=0.3, q=0.2, r=0.5)) == (
        pytest.approx(5 / 100))
    assert scale_factor("1/sqrt(n)", 100, 25, params) == pytest.approx(0.1)
    assert scale_factor("none", 100, 25, params) == 1.0
    with pytest.raises(ValueError):
        scale_factor("bogus", 100, 25, params)


def test_schedule_alpha():
    assert schedule_alpha(MemorySchedule.full()) == 1.0
    assert schedule_alpha(MemorySchedule.first_fixed(10)) == 0.0
    assert schedule_alpha(MemorySchedule.first_increasing()) == 0.0
    half = MemorySchedule.first_increasing(GrowthRule(kind="power", c=0.5, beta=1.0))
    assert schedule_alpha(half) == 0.5


def test_geometric_grid():
    grid = make_geometric_grid(1024, points=4)
    assert grid == (128, 256, 512, 1024)
    assert make_geometric_grid(10, points=8)[0] == 1


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------


def test_ks_single_point_sample():
    assert ks_statistic(np.array([0.0]), LimitCdf(1.0, 1.0, 0.0)) == pytest.approx(0.5)


def test_ks_sample_from_target():
    rng = np.random.default_rng(101)
    sample = rng.normal(0.0, 1.0, 10_000)
    d = ks_statistic(sample, LimitCdf(1.0, 1.0, 0.0))
    assert d < 1.63 / math.sqrt(10_000)


def test_ks_atom_target_all_zero_sample():
    # mixture weight 0.7 on a centred normal plus mass 0.3 at zero; a sample
    # stuck at zero disagrees with the normal component on both sides of the
    # shared jump, and the larger one-sided gap is 1 - 0.65 = 0.35
    target = limit_cdf(limit_moments(DELAYED))
    d = ks_statistic(np.zeros(1000), target)
    assert d == pytest.approx(0.65 - 0.3, abs=1e-12)


def test_ks_detects_wrong_scale():
    rng = np.random.default_rng(7)
    sample = rng.normal(0.0, 2.0, 5000)
    assert ks_statistic(sample, LimitCdf(1.0, 1.0, 0.0)) > 0.1


def test_ks_good_mixture_sample_is_small():
    rng = np.random.default_rng(21)
    n = 20_000
    comp = rng.normal(0.0, math.sqrt(0.1575), n)
    mask = rng.random(n) < 0.3
    comp[mask] = 0.0
    target = limit_cdf(limit_moments(DELAYED))
    assert ks_statistic(comp, target) < 1.63 / math.sqrt(n) + 0.01


def test_kolmogorov_quantile_table_values():
    assert kolmogorov_quantile(0.99) == pytest.approx(1.6276, abs=2e-3)
    assert kolmogorov_quantile(0.95) == pytest.approx(1.3581, abs=2e-3)


def test_total_variation_identical_and_disjoint():
    pmf = {0: 0.5, 2: 0.5}
    assert total_variation(pmf, np.array([0, 2, 0, 2])) == pytest.approx(0.0)
    assert total_variation(pmf, np.array([5, 5])) == pytest.approx(1.0)


def test_variance_standard_error():
    # a balanced +-1 sample has m2 = m4 = 1, so Var(s^2) = 2 / (N (N - 1))
    x = np.array([1.0, -1.0] * 500)
    assert variance_standard_error(x) == pytest.approx(math.sqrt(2.0 / (1000 * 999)),
                                                       rel=1e-12)
    # normal theory: Var(s^2) ~ 2 sigma^4 / N, so the error is sigma^2 sqrt(2 / N)
    x = np.random.default_rng(7).normal(0.0, 2.0, size=200_000)
    assert variance_standard_error(x) == pytest.approx(4.0 * math.sqrt(2.0 / x.size),
                                                       rel=0.02)
    with pytest.raises(ValueError):
        variance_standard_error(np.zeros(3))


# ---------------------------------------------------------------------------
# convergence tables
# ---------------------------------------------------------------------------


def test_moment_convergence_table_gap_shrinks():
    params = WalkParams(p=0.6)
    sched = MemorySchedule.first_increasing()
    rows = moment_convergence_table(params, sched, [10**3, 10**4, 10**5, 10**6])
    gaps = [row["rel_var_gap"] for row in rows]
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 0.05
    assert rows[-1]["limit_var"] == pytest.approx(1 / 15, rel=1e-12)


def test_moment_convergence_table_delayed_columns():
    rows = moment_convergence_table(DELAYED, MemorySchedule.first_increasing(),
                                    [10**4, 10**5])
    assert "nstar_scaled_mean" in rows[-1]


def test_summary_csv_shape():
    cfg = EnsembleConfig(runs=500, n_grid=(10, 50), master_seed=1)
    summary = run_ensemble(DELAYED, MemorySchedule.first_increasing(), cfg)
    text = _csv(summary)
    lines = text.strip().splitlines()
    assert lines[0].startswith("# ensemble p=0.5")
    assert lines[1] == "n,m_n,scaled_mean,scaled_var,skew,ks,atom_fraction"
    assert len(lines) == 4
    assert lines[2].split(",")[0] == "10"
