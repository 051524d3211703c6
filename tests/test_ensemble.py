"""Ensemble engine: determinism, stream discipline, and fit statistics."""

import contextlib
import io
import math
import os
import signal
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from erwlab import ensemble
from erwlab.ensemble import _ChunkStreams, _simulate_chunk
from reference import reference_path

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
    with pytest.raises(ValueError):
        EnsembleConfig(runs=5, n_grid=(4,), workers=0)


def test_budget_refusal_mentions_estimate():
    cfg = EnsembleConfig(runs=10**6, n_grid=(10**6,), max_steps=10**9)
    with pytest.raises(BudgetError, match="1e\\+12"):
        run_ensemble(WalkParams(p=0.6), MemorySchedule.full(), cfg)


def test_worker_count_does_not_change_output():
    # first_fixed(100) freezes after a 100-step head, so the last checkpoint
    # puts a streamed tail of over _TIME_BLOCK steps behind it
    tail_n = 100 + ensemble._TIME_BLOCK + 50
    cases = [
        (MemorySchedule.first_increasing(), 3000, (40, 333), 512),
        (MemorySchedule.first_fixed(100), 40, (1000, tail_n), 7),
        (MemorySchedule.last_fixed(10), 300, (50, 300), 64),
        # n = 12: every chunk is a batched short fill (checked below)
        (MemorySchedule.first_increasing(), 3000, (5, 12), 512),
        # fewer runs than workers
        (MemorySchedule.last_fixed(10), 3, (20, 60), 4096),
    ]
    for workers in (1, 2, 3, 8):
        assert min(np.diff(ensemble._chunk_bounds(3000, 512, workers))) >= ensemble._SHORT_RUNS
    for sched, runs, grid, chunk_size in cases:
        base = dict(runs=runs, n_grid=grid, master_seed=99, chunk_size=chunk_size)
        s1 = run_ensemble(DELAYED, sched, EnsembleConfig(workers=1, **base))
        for workers in (2, 3, 8):
            sk = run_ensemble(DELAYED, sched, EnsembleConfig(workers=workers, **base))
            assert _csv(s1) == _csv(sk), (sched.variant, workers)
            assert np.array_equal(s1.final_S, sk.final_S)
            assert np.array_equal(s1.final_Nstar, sk.final_Nstar)
            assert np.array_equal(s1.ecdf, sk.ecdf)


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail, rather than hang, if the block takes over `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _spy(monkeypatch) -> SimpleNamespace:
    """Record what run_ensemble does in this process: the max_workers of each
    pool it starts, the pool's futures not yet done at each submit, and the
    first run of each chunk it simulates itself with the submits made by
    then.  Helper processes record only in their own copy."""
    log = SimpleNamespace(pools=[], in_flight=[], here=[])

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            log.pools.append(max_workers)
            self.futures = []
            super().__init__(max_workers=max_workers, **kwargs)

        def submit(self, fn, *args, **kwargs):
            log.in_flight.append(sum(not f.done() for f in self.futures))
            self.futures.append(super().submit(fn, *args, **kwargs))
            return self.futures[-1]

    simulate = ensemble._simulate_chunk

    def spy(params, schedule, grid, seed, lo, hi):
        log.here.append((lo, len(log.in_flight)))
        return simulate(params, schedule, grid, seed, lo, hi)

    monkeypatch.setattr(ensemble, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(ensemble, "_simulate_chunk", spy)
    return log


@pytest.mark.parametrize("workers", [2, 3])
def test_caller_is_one_of_the_workers(monkeypatch, workers):
    sched = MemorySchedule.last_fixed(5)
    base = dict(runs=600, n_grid=(30,), master_seed=4, chunk_size=50)
    alone = run_ensemble(DELAYED, sched, EnsembleConfig(workers=1, **base))
    log = _spy(monkeypatch)
    pooled = run_ensemble(DELAYED, sched, EnsembleConfig(workers=workers, **base))
    helpers = workers - 1
    assert log.pools == [helpers]
    # each helper is handed two chunks from the front before the caller starts
    # on the last one, and never holds more than two
    edges = ensemble._chunk_bounds(600, 50, workers)
    assert log.here[0] == (edges[-2], 2 * helpers)
    assert max(log.in_flight) < 2 * helpers
    assert _csv(alone) == _csv(pooled)


@pytest.mark.parametrize("runs, workers", [(600, 1), (1, 4)])
def test_no_pool_for_one_worker_or_one_chunk(monkeypatch, runs, workers):
    log = _spy(monkeypatch)
    cfg = EnsembleConfig(runs=runs, n_grid=(30,), master_seed=4, workers=workers,
                         chunk_size=100)
    run_ensemble(DELAYED, MemorySchedule.last_fixed(5), cfg)
    assert log.pools == []
    assert [lo for lo, _ in log.here] == ensemble._chunk_bounds(runs, 100, workers)[:-1]


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_a_failing_chunk_propagates(monkeypatch, where):
    caller, simulate = os.getpid(), ensemble._simulate_chunk

    def failing(params, schedule, grid, seed, lo, hi):
        if (os.getpid() == caller) == (where == "caller"):
            raise RuntimeError(f"chunk [{lo}, {hi}) failed in the {where}")
        return simulate(params, schedule, grid, seed, lo, hi)

    # patched before run_ensemble forks its helpers, so they inherit it
    monkeypatch.setattr(ensemble, "_simulate_chunk", failing)
    cfg = EnsembleConfig(runs=400, n_grid=(30,), master_seed=4, workers=2, chunk_size=50)
    with _deadline(60), pytest.raises(RuntimeError, match=f"failed in the {where}"):
        run_ensemble(DELAYED, MemorySchedule.last_fixed(5), cfg)


@pytest.mark.parametrize("runs, chunk_size, workers, sizes", [
    (10_000, 4096, 2, [2500] * 4),
    (16_384, 4096, 2, [4096] * 4),
    (500_000, 4096, 2, [4033] * 32 + [4032] * 92),
    (2001, 137, 2, [125] * 15 + [126]),
    (3, 4096, 8, [1] * 3),
    (7, 3, 1, [2, 2, 3]),
])
def test_chunks_are_even_and_shared_by_the_workers(runs, chunk_size, workers, sizes):
    bounds = ensemble._chunk_bounds(runs, chunk_size, workers)
    assert bounds[0] == 0 and bounds[-1] == runs
    assert sorted(np.diff(bounds).tolist()) == sorted(sizes)


def test_chunk_size_does_not_change_samples():
    sched = MemorySchedule.last_fixed(5)
    a = run_ensemble(DELAYED, sched,
                     EnsembleConfig(runs=2000, n_grid=(200,), master_seed=3, chunk_size=4096))
    b = run_ensemble(DELAYED, sched,
                     EnsembleConfig(runs=2000, n_grid=(200,), master_seed=3,
                                    chunk_size=137, workers=2))
    assert np.array_equal(a.final_S, b.final_S)
    assert _csv(a) == _csv(b)


_ENGINE_SCHEDULES = [
    MemorySchedule.full(),
    MemorySchedule.first_increasing(),
    MemorySchedule.first_fixed(40),
    MemorySchedule.first_plus_recent(m=40, recent=2),
    MemorySchedule.first_plus_recent(growth=GrowthRule(), recent=1),
    MemorySchedule.last_fixed(7),
    MemorySchedule.last_increasing(GrowthRule(kind="power", c=2.0, beta=0.4)),
    MemorySchedule.first_fixed(64),    # freezes on a tile edge
    MemorySchedule.first_fixed(2048),  # freezes on a time-block edge
    # m_n = 1, 1, 3: at n = 3 the window grows back over step 1
    MemorySchedule.last_increasing(GrowthRule(kind="log", c=2.8)),
    # a 104-step head, 3 steps past the freeze step, then a streamed tail
    # over _TIME_BLOCK with checkpoints 2100 and 2600 inside it
    MemorySchedule.first_fixed(101),
]


@pytest.mark.parametrize("schedule", _ENGINE_SCHEDULES)
def test_vectorized_engine_reproduces_scalar_paths(schedule):
    # checkpoints inside and after the frozen pass are compared as well as the
    # last; 4103 ends on a partial Philox block, after a fill that resumes at
    # counter 1024
    grid = (39, 41, 100, 2100, 2600, 4103)
    for params in (DELAYED, WalkParams(p=0.7, s=0.2)):
        chunk = _simulate_chunk(params, schedule, grid, 77, 0, 4)
        for i in range(4):
            got = [(n, int(chunk[n][0][i]), int(chunk[n][1][i])) for n in grid]
            assert got == reference_path(params, schedule, grid, 77, i), (params, i)


@pytest.mark.parametrize("schedule", _ENGINE_SCHEDULES)
def test_batched_fills_reproduce_scalar_paths(monkeypatch, schedule):
    # every time block of 16 uniforms is computed in numpy, slab by slab, so
    # batched fills start the walk and land mid-walk; where no frozen tail is
    # streamed run by run, the last one ends on a partial Philox block
    monkeypatch.setattr(ensemble, "_SHORT_RUNS", 1)
    monkeypatch.setattr(ensemble, "_SHORT_SLAB", 3)
    monkeypatch.setattr(ensemble, "_TIME_BLOCK", 16)
    batched = _batched_fills(monkeypatch)
    grid = (3, 39, 41, 100, 203)
    for params in (DELAYED, WalkParams(p=0.7, s=0.2)):
        chunk = _simulate_chunk(params, schedule, grid, 2**63 + 77, 2**64 - 2, 2**64 + 2)
        for i in range(4):
            got = [(n, int(chunk[n][0][i]), int(chunk[n][1][i])) for n in grid]
            want = reference_path(params, schedule, grid, 2**63 + 77, 2**64 - 2 + i)
            assert got == want, (params, i)
    assert batched


_GROWTH = st.builds(GrowthRule, kind=st.sampled_from(["power", "log"]),
                    c=st.floats(0.3, 4.0), beta=st.floats(0.1, 1.0))
_SCHEDULES = st.one_of(
    st.just(MemorySchedule.full()),
    st.builds(MemorySchedule.first_fixed, st.integers(1, 40)),
    st.builds(MemorySchedule.first_increasing, _GROWTH),
    st.builds(MemorySchedule.first_plus_recent, m=st.integers(1, 40), recent=st.integers(1, 5)),
    st.builds(MemorySchedule.first_plus_recent, growth=_GROWTH, recent=st.integers(1, 5)),
    st.builds(MemorySchedule.last_fixed, st.integers(1, 40)),
    st.builds(MemorySchedule.last_increasing, _GROWTH),
)


@st.composite
def _walk_params(draw):
    p = draw(st.floats(0.05, 0.95))
    r = draw(st.just(0.0) | st.floats(0.0, 0.999 - p))
    return WalkParams(p=p, r=r, s=draw(st.floats(0.0, 1.0)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(params=_walk_params(), schedule=_SCHEDULES,
       grid=st.lists(st.integers(1, 300), min_size=1, max_size=5, unique=True)
       .map(lambda g: tuple(sorted(g))),
       seed=st.integers(0, 2**64 - 1), run_lo=st.integers(0, 2**64 - 1),
       count=st.integers(2, 5), cut=st.integers(1, 4))
def test_kernel_matches_reference_and_any_chunk_split(params, schedule, grid, seed, run_lo,
                                                      count, cut):
    mid = run_lo + min(cut, count - 1)
    whole = _simulate_chunk(params, schedule, grid, seed, run_lo, run_lo + count)
    left = _simulate_chunk(params, schedule, grid, seed, run_lo, mid)
    right = _simulate_chunk(params, schedule, grid, seed, mid, run_lo + count)
    for n in grid:
        for i in (0, 1):
            assert np.array_equal(np.concatenate([left[n][i], right[n][i]]), whole[n][i])
    for j in range(count):
        got = [(n, int(whole[n][0][j]), int(whole[n][1][j])) for n in grid]
        assert got == reference_path(params, schedule, grid, seed, run_lo + j), j


@pytest.mark.parametrize("schedule", [
    MemorySchedule.first_fixed(1),
    MemorySchedule.first_fixed(9),
    MemorySchedule.first_increasing(GrowthRule(kind="log", c=1.0)),
    MemorySchedule.first_increasing(GrowthRule(c=1.5, beta=0.3)),
])
def test_streamed_tail_in_many_pieces_matches_reference(monkeypatch, schedule):
    # small blocks put tails of several pieces, a last piece that is not a
    # multiple of 4, and checkpoints on and between piece edges within reach
    monkeypatch.setattr(ensemble, "_TIME_BLOCK", 16)
    monkeypatch.setattr(ensemble, "_TAIL_BLOCK", 12)
    grid = (3, 12, 20, 36, 37, 60, 97)
    for params in (DELAYED, WalkParams(p=0.7, s=0.2)):
        chunk = _simulate_chunk(params, schedule, grid, 2**63 + 5, 2**64 - 2, 2**64 + 2)
        for i in range(4):
            got = [(n, int(chunk[n][0][i]), int(chunk[n][1][i])) for n in grid]
            assert got == reference_path(params, schedule, grid, 2**63 + 5, 2**64 - 2 + i), i


def test_frozen_tail_streams_through_a_small_buffer():
    # one 4096-run chunk used to hold a 64 MB time block and two 8 MB masks
    tracemalloc.start()
    try:
        _simulate_chunk(WalkParams(p=0.6), MemorySchedule.first_fixed(100),
                        (5000, 10_000), 3, 0, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_frozen_pass_starts_at_the_freeze_step(monkeypatch):
    # first-fixed(100) reads its final block from step 101 on: steps 2..100
    # need their own thresholds and every later step shares one set
    calls = []
    cut_points = ensemble._cut_points

    def counted(*args):
        calls.append(args)
        return cut_points(*args)

    monkeypatch.setattr(ensemble, "_cut_points", counted)
    _simulate_chunk(WalkParams(p=0.6), MemorySchedule.first_fixed(100), (5000,), 1, 0, 64)
    assert len(calls) <= 101


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
    streams.seek(1, 6)
    with pytest.raises(ValueError, match="multiple of 4"):
        streams.fill(out, 4)


@pytest.mark.parametrize("seed, run_lo", [
    (2**63 + 12345, 0),
    (2**64 - 1, 2**64 - 3),
    (-7, 2**64 - 1),
])
def test_chunk_streams_seek_one_run(seed, run_lo):
    # after a fill of every run, seek serves one run alone from a later draw,
    # piece after piece, across key wrap-around
    streams = _ChunkStreams(seed, run_lo)
    streams.fill(np.empty((3, 8)), 8)
    out = np.full((1, 16), np.nan)
    for j in (2, 0, 1):
        streams.seek(j, 12)
        parts = []
        for nb in (16, 4, 7):
            streams.fill(out, nb)
            parts.append(out[0, :nb].copy())
        want = make_run_stream(seed, run_lo + j).random(12 + 27)[12:]
        assert np.array_equal(np.concatenate(parts), want), j


def _batched_fills(monkeypatch) -> list[tuple[int, int]]:
    """Record (runs, nb) of every fill computed by _philox_uniforms."""
    calls = []
    philox_uniforms = ensemble._philox_uniforms

    def spy(out, nb, *args):
        calls.append((len(out), nb))
        return philox_uniforms(out, nb, *args)

    monkeypatch.setattr(ensemble, "_philox_uniforms", spy)
    return calls


@pytest.mark.parametrize("seed", [12345, 2**63 + 12345, -7])
@pytest.mark.parametrize("run_lo", [0, 2**64 - 4])
@pytest.mark.parametrize("drawn", [0, 4, 2048])
@pytest.mark.parametrize("nb", [1, 3, 4, 12, ensemble._SHORT_FILL])
def test_batched_fill_matches_run_streams(monkeypatch, seed, run_lo, drawn, nb):
    # 7 runs in slabs of at most 3, whose keys wrap past 2^64 - 1 inside the
    # fill when run_lo = 2^64 - 4; the streams resume at `drawn` first
    monkeypatch.setattr(ensemble, "_SHORT_RUNS", 7)
    monkeypatch.setattr(ensemble, "_SHORT_SLAB", 3)
    calls = _batched_fills(monkeypatch)
    streams = _ChunkStreams(seed, run_lo)
    if drawn:
        streams.fill(np.empty((7, drawn)), drawn)
    out = np.full((7, ensemble._SHORT_FILL + 2), np.nan)
    streams.fill(out, nb)
    assert calls[-1] == (7, nb)
    for j in range(7):
        want = make_run_stream(seed, run_lo + j).random(drawn + nb)[drawn:]
        assert np.array_equal(out[j, :nb], want), j
    assert np.isnan(out[:, nb:]).all()


def test_short_fills_of_many_runs_are_batched(monkeypatch):
    # the default thresholds: a 12-draw fill of _SHORT_RUNS runs is batched,
    # one run fewer or one draw over _SHORT_FILL is not
    calls = _batched_fills(monkeypatch)
    runs = ensemble._SHORT_RUNS
    _ChunkStreams(5, 0).fill(np.empty((runs - 1, 12)), 12)
    _ChunkStreams(5, 0).fill(np.empty((runs, 64)), ensemble._SHORT_FILL + 1)
    assert calls == []
    out = np.empty((runs, 12))
    _ChunkStreams(5, 2**64 - 1).fill(out, 12)
    assert calls == [(runs, 12)]
    for j in (0, 1, runs - 1):
        assert np.array_equal(out[j], make_run_stream(5, 2**64 - 1 + j).random(12)), j


def test_batched_fill_refuses_resume_inside_philox_block(monkeypatch):
    monkeypatch.setattr(ensemble, "_SHORT_RUNS", 2)
    calls = _batched_fills(monkeypatch)
    streams = _ChunkStreams(5, 0)
    out = np.empty((2, 8))
    streams.fill(out, 6)
    assert calls == [(2, 6)]
    with pytest.raises(ValueError, match="multiple of 4"):
        streams.fill(out, 4)
    assert calls == [(2, 6)]


def test_one_run_fills_are_never_batched(monkeypatch):
    # a single path is a chunk of one run, below _SHORT_RUNS; a run's frozen
    # tail is drawn through seek, one run at a time, even where a fill of a
    # single run would otherwise qualify, while the head's fill of the whole
    # chunk is batched
    monkeypatch.setattr(ensemble, "_TIME_BLOCK", 16)
    monkeypatch.setattr(ensemble, "_TAIL_BLOCK", 12)
    calls = _batched_fills(monkeypatch)
    simulate_path(WalkParams(p=0.7), MemorySchedule.first_increasing(), 40, (12, 40), 7, 3)
    assert calls == []
    monkeypatch.setattr(ensemble, "_SHORT_RUNS", 1)
    seeks = []
    seek = _ChunkStreams.seek
    monkeypatch.setattr(_ChunkStreams, "seek",
                        lambda self, j, drawn: (seeks.append(j), seek(self, j, drawn)))
    _simulate_chunk(WalkParams(p=0.7), MemorySchedule.first_fixed(9), (3, 12, 97), 7, 0, 4)
    assert seeks == [0, 1, 2, 3]
    assert calls == [(4, 12)]


def test_batched_fill_scratch_is_bounded():
    # 4096 runs are filled in slabs through ten reused buffers: about 240 KB,
    # where the whole chunk's lanes would take about 1 MB
    out = np.empty((4096, 12))
    streams = _ChunkStreams(3, 0)
    tracemalloc.start()
    try:
        streams.fill(out, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


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
