"""Ensemble engine: determinism, stream discipline, and fit statistics."""

import concurrent.futures
import contextlib
import io
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    make_run_stream,
    moment_convergence_table,
    run_ensemble,
    scale_factor,
    schedule_alpha,
    simulate_paths,
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


def test_worker_count_does_not_change_output(monkeypatch):
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
        # 94 or 96 chunks: tasks of several chunks at every worker count
        (MemorySchedule.first_fixed(3), 3000, (7, 40), 32),
    ]
    for workers in (1, 2, 3, 8):
        assert min(np.diff(ensemble._chunk_bounds(3000, 512, workers))) >= ensemble._SHORT_RUNS
    for sched, runs, grid, chunk_size in cases:
        monkeypatch.setattr(ensemble, "DEFAULT_CHUNK", chunk_size)
        base = dict(runs=runs, n_grid=grid, master_seed=99)
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


def _spy(monkeypatch, tmp_path) -> SimpleNamespace:
    """Record what run_ensemble does: the chunk edges of each task it hands
    to _run_chunks, the max_workers of each pool it starts, the pool's
    futures not yet done at each submit, and the first run of each chunk it
    simulates itself with the submits made by then.  Helper processes record
    those only in their own copy, but every process appends the (lo, hi) of
    each chunk it simulates to one file, read back by _chunk_calls."""
    log = SimpleNamespace(tasks=[], pools=[], in_flight=[], here=[],
                          calls=tmp_path / "chunk_calls")

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            log.pools.append(max_workers)
            self.futures = []
            super().__init__(max_workers=max_workers, **kwargs)

        def submit(self, fn, *args, **kwargs):
            log.in_flight.append(sum(not f.done() for f in self.futures))
            self.futures.append(super().submit(fn, *args, **kwargs))
            return self.futures[-1]

    simulate, run_chunks = ensemble._simulate_chunk, ensemble._run_chunks

    def spy(params, schedule, grid, seed, lo, hi):
        log.here.append((lo, len(log.in_flight)))
        with open(log.calls, "a") as fh:
            fh.write(f"{lo} {hi}\n")
        return simulate(params, schedule, grid, seed, lo, hi)

    def spy_run_chunks(tasks, workers):
        log.tasks.append([list(task[-1]) for task in tasks])
        return run_chunks(tasks, workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    monkeypatch.setattr(ensemble, "_simulate_chunk", spy)
    monkeypatch.setattr(ensemble, "_run_chunks", spy_run_chunks)
    return log


def _chunk_calls(log) -> list[tuple[int, int]]:
    """The (lo, hi) of every chunk simulated in any process, sorted."""
    return sorted(tuple(map(int, line.split())) for line in log.calls.read_text().splitlines())


@pytest.mark.parametrize("workers, runs", [
    # 12 chunks: a task per chunk
    pytest.param(2, 600, id="2"),
    pytest.param(3, 600, id="3"),
    # 40 or 42 chunks: more than 8 per worker, so tasks of 2 or 3 chunks
    pytest.param(2, 2000, id="2-many-chunks"),
    pytest.param(3, 2000, id="3-many-chunks"),
])
def test_caller_is_one_of_the_workers(monkeypatch, tmp_path, workers, runs):
    # helpers are capped at the usable CPUs; four keeps every layout here
    # whole on a smaller machine
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 4)
    sched = MemorySchedule.last_fixed(5)
    monkeypatch.setattr(ensemble, "DEFAULT_CHUNK", 50)
    base = dict(runs=runs, n_grid=(30,), master_seed=4)
    alone = run_ensemble(DELAYED, sched, EnsembleConfig(workers=1, **base))
    log = _spy(monkeypatch, tmp_path)
    pooled = run_ensemble(DELAYED, sched, EnsembleConfig(workers=workers, **base))
    helpers = workers - 1
    assert log.pools == [helpers]
    # min(chunks, 8 workers) tasks of contiguous whole chunks, in run order,
    # and one _simulate_chunk call per chunk over all processes
    edges = ensemble._chunk_bounds(runs, 50, workers)
    chunks = len(edges) - 1
    [tasks] = log.tasks
    assert len(tasks) == min(chunks, 8 * workers)
    assert [lo for task in tasks for lo in task[:-1]] == edges[:-1]
    assert all(a[-1] == b[0] for a, b in zip(tasks, tasks[1:])) and tasks[-1][-1] == runs
    assert max(len(t) - 1 for t in tasks) - min(len(t) - 1 for t in tasks) <= 1
    assert _chunk_calls(log) == list(zip(edges[:-1], edges[1:]))
    # each helper is handed two tasks from the front before the caller starts
    # on the last one, and never holds more than two
    assert log.here[0] == (tasks[-1][0], 2 * helpers)
    assert max(log.in_flight) < 2 * helpers
    assert _csv(alone) == _csv(pooled)


@pytest.mark.parametrize("runs, workers", [(600, 1), (1, 4)])
def test_no_pool_for_one_worker_or_one_chunk(monkeypatch, tmp_path, runs, workers):
    log = _spy(monkeypatch, tmp_path)
    monkeypatch.setattr(ensemble, "DEFAULT_CHUNK", 100)
    cfg = EnsembleConfig(runs=runs, n_grid=(30,), master_seed=4, workers=workers)
    run_ensemble(DELAYED, MemorySchedule.last_fixed(5), cfg)
    assert log.pools == []
    assert [lo for lo, _ in log.here] == ensemble._chunk_bounds(runs, 100, workers)[:-1]


def test_helpers_are_capped_at_the_usable_cpus(monkeypatch):
    # workers = 5000 cuts 100 runs into 100 one-run tasks, on three CPUs
    # whatever the machine; the fake pool records the helpers asked for and
    # runs each task inline, so no process starts whatever it is asked
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 3)
    cfg = EnsembleConfig(runs=100, n_grid=(4,), master_seed=4, workers=5000)
    run_ensemble(DELAYED, MemorySchedule.last_fixed(2), cfg)
    assert asked == [2]


@pytest.mark.parametrize("where, runs, chunk", [
    pytest.param("helper", 400, None, id="helper"),
    pytest.param("caller", 400, None, id="caller"),
    # 40 chunks in 16 tasks: chunk 3 is the middle one of chunks 2..4, the
    # second task, which the helper holds; chunk 38 of chunks 37..39, the
    # last task, which the caller takes first
    pytest.param("helper", 2000, 3, id="helper-mid-task"),
    pytest.param("caller", 2000, 38, id="caller-mid-task"),
])
def test_a_failing_chunk_propagates(monkeypatch, where, runs, chunk):
    caller, simulate = os.getpid(), ensemble._simulate_chunk
    edges = ensemble._chunk_bounds(runs, 50, 2)

    def failing(params, schedule, grid, seed, lo, hi):
        if (os.getpid() == caller) == (where == "caller") and chunk in (None, edges.index(lo)):
            raise RuntimeError(f"chunk [{lo}, {hi}) failed in the {where}")
        return simulate(params, schedule, grid, seed, lo, hi)

    # patched before run_ensemble forks its helpers, so they inherit it; two
    # CPUs, so that a helper starts on a smaller machine too
    monkeypatch.setattr(ensemble, "_simulate_chunk", failing)
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ensemble, "DEFAULT_CHUNK", 50)
    cfg = EnsembleConfig(runs=runs, n_grid=(30,), master_seed=4, workers=2)
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


def test_chunk_size_does_not_change_samples(monkeypatch):
    sched = MemorySchedule.last_fixed(5)
    a = run_ensemble(DELAYED, sched, EnsembleConfig(runs=2000, n_grid=(200,), master_seed=3))
    monkeypatch.setattr(ensemble, "DEFAULT_CHUNK", 137)
    b = run_ensemble(DELAYED, sched,
                     EnsembleConfig(runs=2000, n_grid=(200,), master_seed=3, workers=2))
    assert np.array_equal(a.final_S, b.final_S)
    assert _csv(a) == _csv(b)


@pytest.mark.parametrize("n_max, dtype", [
    (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
])
def test_chunks_hand_back_the_narrowest_dtype(monkeypatch, n_max, dtype):
    # with r = 0 every step is nonzero, so N* = n_max in every run and a dtype
    # one size too narrow wraps; first_fixed(1) freezes at once, and with
    # p = 0.999 and full memory most runs end at S = +n_max
    cases = [(WalkParams(p=0.6), MemorySchedule.first_fixed(1))]
    monkeypatch.setattr(ensemble, "DEFAULT_CHUNK", 3)
    if n_max < 256:
        cases.append((WalkParams(p=0.999, s=1.0), MemorySchedule.full()))
    for params, sched in cases:
        S, nstar = _simulate_chunk(params, sched, (n_max,), 5, 0, 8)[n_max]
        assert S.dtype == dtype and nstar.dtype == dtype
        assert (nstar == n_max).all()
        summary = run_ensemble(params, sched, EnsembleConfig(runs=8, n_grid=(n_max,),
                                                             master_seed=5))
        assert summary.final_S.dtype == np.int64 and summary.final_Nstar.dtype == np.int64
        assert np.array_equal(summary.final_S, S) and (summary.final_Nstar == n_max).all()
        if params.p > 0.99:
            assert np.count_nonzero(S == n_max) > 4


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lo=st.integers(-10**6, 10**6), span=st.integers(1, 300), size=st.integers(1, 300),
       factor=st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6), data=st.data())
def test_third_moment_table_matches_cubes(lo, span, size, factor, data):
    # spans below, at and above the sample size take the table and the cube
    # paths; mu is taken as the reducer takes it, from the scaled sample
    x = np.array(data.draw(st.lists(st.integers(lo, lo + span - 1), min_size=size,
                                    max_size=size)), dtype=np.int64)
    mu = float((x.astype(np.float64) * factor).mean())
    want = float(((x.astype(np.float64) * factor - mu) ** 3).mean())
    assert ensemble._third_moment(x, factor, mu) == want


_ENGINE_SCHEDULES = [
    MemorySchedule.full(),
    MemorySchedule.first_increasing(),
    MemorySchedule.first_fixed(40),
    MemorySchedule.first_plus_recent(m=40, recent=2),
    MemorySchedule.first_plus_recent(growth=GrowthRule(), recent=1),
    MemorySchedule.last_fixed(7),
    MemorySchedule.last_increasing(GrowthRule(kind="power", c=2.0, beta=0.4)),
    MemorySchedule.first_fixed(64),    # a 64-step head, then a streamed tail
    MemorySchedule.first_fixed(2048),  # freezes on a time-block edge
    # m_n = 1, 1, 3: at n = 3 the window grows back over step 1
    MemorySchedule.last_increasing(GrowthRule(kind="log", c=2.8)),
    # a 104-step head, 3 steps past the freeze step, then a streamed tail
    # over _TIME_BLOCK with checkpoints 2100 and 2600 inside it
    MemorySchedule.first_fixed(101),
]


@pytest.mark.parametrize("schedule", _ENGINE_SCHEDULES)
def test_vectorized_engine_reproduces_scalar_paths(schedule):
    # checkpoints among and after the head's frozen rows are compared as well
    # as the last; 4103 ends on a partial Philox block, after a fill that
    # resumes at counter 1024
    grid = (39, 41, 100, 2100, 2600, 4103)
    for params in (DELAYED, WalkParams(p=0.7, s=0.2)):
        chunk = _simulate_chunk(params, schedule, grid, 77, 0, 4)
        for i in range(4):
            got = [(n, int(chunk[n][0][i]), int(chunk[n][1][i])) for n in grid]
            assert got == reference_path(params, schedule, grid, 77, i), (params, i)


@pytest.mark.parametrize("schedule", _ENGINE_SCHEDULES)
def test_batched_fills_reproduce_scalar_paths(monkeypatch, schedule):
    # every time block of 16 uniforms is computed in numpy, in slabs of 3
    # runs, so batched fills start the walk and land mid-walk; where no
    # frozen tail is streamed run by run, the last one ends on a partial
    # Philox block
    monkeypatch.setattr(ensemble, "_SHORT_RUNS", 1)
    monkeypatch.setattr(ensemble, "_SLAB_BYTES", _slab_bytes(3, 16))
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
    # r = 0 walks, whose kernel keeps no count of -1 steps, are drawn apart
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
    # multiple of 4, and checkpoints on and between piece edges within reach.
    # The r = 0 walk has equal cuts, so one compare counts both signs; under
    # first_fixed(1) the q = 0 walk's frozen cuts are t1 = 0 and t2 = 1.0
    # after a first zero, and t2 = 1.0 after a first +1 (runs 0, 1, 3 and 2)
    monkeypatch.setattr(ensemble, "_TIME_BLOCK", 16)
    monkeypatch.setattr(ensemble, "_TAIL_BLOCK", 12)
    grid = (3, 12, 20, 36, 37, 60, 97)
    for params in (DELAYED, WalkParams(p=0.7, s=0.2), WalkParams(p=0.5, r=0.5)):
        chunk = _simulate_chunk(params, schedule, grid, 2**63 + 5, 2**64 - 2, 2**64 + 2)
        for i in range(4):
            got = [(n, int(chunk[n][0][i]), int(chunk[n][1][i])) for n in grid]
            assert got == reference_path(params, schedule, grid, 2**63 + 5, 2**64 - 2 + i), i
        if params.q == 0.0 and schedule.split(97)[0] == 1:
            assert 0 < np.count_nonzero(chunk[97][1]) < 4


_TWO_VALUED_SCHEDULES = [
    MemorySchedule.full(),
    MemorySchedule.first_fixed(9),  # a 12-step head, then a streamed tail
    MemorySchedule.first_increasing(GrowthRule(c=1.5, beta=0.3)),
    MemorySchedule.first_plus_recent(m=9, recent=3),
    MemorySchedule.first_plus_recent(growth=GrowthRule(), recent=2),
    MemorySchedule.last_fixed(7),
    MemorySchedule.last_increasing(GrowthRule(kind="log", c=2.8)),
]


@pytest.mark.parametrize("count", [1, 300])
@pytest.mark.parametrize("schedule", _TWO_VALUED_SCHEDULES)
def test_two_valued_walk_hands_back_every_step_as_nonzero(monkeypatch, schedule, count):
    # at r = 0 no step is 0: the kernel keeps no count of -1 steps and hands back
    # N*_k = k.  Time blocks of 16 steps put the checkpoints in seven blocks,
    # or in a head and a tail of 12-word pieces
    monkeypatch.setattr(ensemble, "_TIME_BLOCK", 16)
    monkeypatch.setattr(ensemble, "_TAIL_BLOCK", 12)
    grid = (1, 2, 15, 16, 17, 40, 97)
    params = WalkParams(p=0.7, s=0.2)
    chunk = _simulate_chunk(params, schedule, grid, 2024, 5, 5 + count)
    for k in grid:
        S, nstar = chunk[k]
        assert np.array_equal(nstar, np.full(count, k)), k
        assert np.all(np.abs(S) <= k) and np.all((S.astype(np.int64) - k) % 2 == 0), k
    for j in range(min(count, 3)):
        got = [(k, int(chunk[k][0][j]), int(chunk[k][1][j])) for k in grid]
        assert got == reference_path(params, schedule, grid, 2024, 5 + j), j


def test_a_walk_that_rarely_stands_still_counts_its_zeros():
    # every r > 0 keeps the -1 count: at r = 2^-16 some 60 of 4096 runs
    # take a zero step by step 1000, and full memory recalls it ever after
    params, schedule = WalkParams(p=0.6, r=2.0**-16), MemorySchedule.full()
    S, nstar = _simulate_chunk(params, schedule, (1000,), 1, 0, 4096)[1000]
    stood = np.flatnonzero(nstar < 1000)
    assert len(stood) > 10
    for j in stood[:2]:
        got = [(1000, int(S[j]), int(nstar[j]))]
        assert got == reference_path(params, schedule, (1000,), 1, int(j)), j


@pytest.mark.parametrize("n_max", [127, 32767])
def test_near_all_plus_walks_fill_the_count_dtype(n_max):
    # s = 1 and p = 1 - 2^-30 under full memory step +1 all the way: S_n
    # reaches the largest value of the int8 or int16 counts, which the ring,
    # the thresholds and the checkpoints must all hold exactly
    params, schedule = WalkParams(p=1.0 - 2.0**-30, s=1.0), MemorySchedule.full()
    grid = tuple(range(1, n_max + 1))
    chunk = _simulate_chunk(params, schedule, grid, 3, 0, 2)
    assert np.iinfo(chunk[n_max][0].dtype).max == chunk[n_max][0].max() == n_max
    for j in range(2):
        got = [(n, int(chunk[n][0][j]), int(chunk[n][1][j])) for n in grid]
        assert got == reference_path(params, schedule, grid, 3, j), j


@pytest.mark.parametrize("schedule", [
    MemorySchedule.last_fixed(5),
    MemorySchedule.first_plus_recent(m=3, recent=4),
])
def test_window_ring_wraps_across_time_blocks(monkeypatch, schedule):
    # the ring's 6 or 5 rows of running counts wrap within and across time
    # blocks of 8 steps; every step is a checkpoint
    monkeypatch.setattr(ensemble, "_TIME_BLOCK", 8)
    grid = tuple(range(1, 43))
    for params in (DELAYED, WalkParams(p=0.7, s=0.2)):
        chunk = _simulate_chunk(params, schedule, grid, 31, 7, 12)
        for j in range(5):
            got = [(n, int(chunk[n][0][j]), int(chunk[n][1][j])) for n in grid]
            assert got == reference_path(params, schedule, grid, 31, 7 + j), (params, j)


@pytest.mark.parametrize("schedule, held", [
    # a fixed window, whose size 10 holds from step 12 on
    (MemorySchedule.last_fixed(10), [10]),
    # a growing block whose sizes repeat: 1, 1, 2 (8 times), 3 (16), 4 (29),
    # then 5 once, read by the freeze step 57
    (MemorySchedule.first_increasing(GrowthRule(c=1.5, beta=0.3)), [1, 2, 3, 4]),
    # a growing window: 1, 1, 3, 3, 4, 5, 5, ... up to 12 by step 100
    (MemorySchedule.last_increasing(GrowthRule(kind="log", c=2.8)),
     [1, 3, 5, 6, 7, 8, 9, 10, 11, 12]),
])
@pytest.mark.parametrize("params", [WalkParams(p=0.7, s=0.2), DELAYED])
def test_cut_point_tables_reproduce_scalar_paths(monkeypatch, schedule, held, params):
    # a memory whose size held over the last step reads its cut points from a
    # table of every count it can hold: size + 1 entries at r = 0, and
    # (size + 1)^2 (plus, minus) pairs at r > 0, built once per size that
    # holds and only while the table has fewer entries than the 130 runs
    runs, rows = 130, 2 if params.r > 0.0 else 1
    tables, cut_points = [], ensemble._cut_points

    def spy(p, q, r, w, size, plus, minus):
        if len(plus) < runs:
            tables.append((int(size), len(plus)))
        return cut_points(p, q, r, w, size, plus, minus)

    monkeypatch.setattr(ensemble, "_cut_points", spy)
    grid = (3, 17, 40, 100)
    chunk = _simulate_chunk(params, schedule, grid, 2**63 + 9, 2**64 - 60, 2**64 - 60 + runs)
    assert tables == [(s, (s + 1) ** rows) for s in held if (s + 1) ** rows < runs]
    for j in range(runs):
        got = [(n, int(chunk[n][0][j]), int(chunk[n][1][j])) for n in grid]
        assert got == reference_path(params, schedule, grid, 2**63 + 9, 2**64 - 60 + j), j


def test_a_window_chunk_keeps_a_half_size_time_block():
    # a trailing 10-step window steps every row of its time blocks, 1024
    # steps for a DEFAULT_CHUNK chunk; as doubles they took 32 MiB, and blocks
    # of 2048 doubles took the chunk's peak to about 65 MiB
    tracemalloc.start()
    try:
        _simulate_chunk(WalkParams(p=0.6), MemorySchedule.last_fixed(10), (3000,), 5, 0,
                        ensemble.DEFAULT_CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_a_window_chunk_keeps_16_bit_prefixes_in_its_time_block():
    # the same chunk's 1024 x 4096 block of uint16 prefixes takes 8 MiB
    tracemalloc.start()
    try:
        _simulate_chunk(WalkParams(p=0.6), MemorySchedule.last_fixed(10), (3000,), 5, 0,
                        ensemble.DEFAULT_CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


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


@pytest.mark.parametrize("r", [0.0, 0.3])
@pytest.mark.parametrize("m, time_block, head", [(5, None, 40), (5, 16, 8), (4, 16, 4)])
def test_frozen_rows_reuse_the_freeze_steps_thresholds(monkeypatch, r, m, time_block, head):
    # first_fixed(m) freezes at step m + 1, which reads the block {1..m}.
    # Steps k = 2..min(head, m + 1) each read their own memory of k - 1
    # steps, the frozen rows after them in the time blocks reuse the last
    # cut points, and a tail that starts before the freeze step (first_fixed(4),
    # whose head of 4 steps stops one short of it) computes them once
    if time_block:
        monkeypatch.setattr(ensemble, "_TIME_BLOCK", time_block)
    sizes = []
    cut_points = ensemble._cut_points

    def counted(*args):
        sizes.append(args[4])
        return cut_points(*args)

    monkeypatch.setattr(ensemble, "_cut_points", counted)
    params, schedule = WalkParams(p=0.6, r=r), MemorySchedule.first_fixed(m)
    grid = (3, 6, 7, 8, 23, 40)
    chunk = _simulate_chunk(params, schedule, grid, 11, 0, 5)
    stepped = list(range(1, min(head, m + 1)))
    assert sizes == stepped + ([m] if head < m + 1 else [])
    for j in range(5):
        got = [(n, int(chunk[n][0][j]), int(chunk[n][1][j])) for n in grid]
        assert got == reference_path(params, schedule, grid, 11, j), j


@pytest.mark.parametrize("r", [0.0, 0.3])
def test_a_capped_window_ring_leaves_the_ensemble_unchanged(monkeypatch, r):
    # a window of 200 steps at n = 400 holds 201 slots of int16 counts per
    # run and row; with the ring capped at 256 KiB, and 8-step time blocks,
    # a chunk holds 652 runs at r = 0 and 326 at r > 0
    schedule = MemorySchedule.last_increasing(GrowthRule(kind="power", c=0.5, beta=1.0))
    params = WalkParams(p=0.6, r=r)
    cfg = EnsembleConfig(runs=1500, n_grid=(37, 400), master_seed=9)
    uncapped = _csv(run_ensemble(params, schedule, cfg))
    monkeypatch.setattr(ensemble, "_TIME_BLOCK", 8)
    monkeypatch.setattr(ensemble, "_RING_BYTES", 2**18)
    chunks, simulate = [], ensemble._simulate_chunk

    def counted(params, schedule, grid, seed, lo, hi):
        chunks.append(hi - lo)
        return simulate(params, schedule, grid, seed, lo, hi)

    monkeypatch.setattr(ensemble, "_simulate_chunk", counted)
    assert _csv(run_ensemble(params, schedule, cfg)) == uncapped
    cap = 652 if r == 0.0 else 326
    assert ensemble._ring_chunk(params, schedule, 400) == cap
    assert len(chunks) > 1 and max(chunks) <= cap


def test_window_ring_of_a_linear_window_is_capped_up_front():
    # last_increasing(c = 0.5, beta = 1) at n = 10^5 keeps a 50001-slot ring
    # of int32 counts: one 4096-run chunk would need 820 MB, so chunks hold
    # at most 167 runs, 32 MiB at most, four default time blocks' bytes;
    # the trailing 10-step window keeps its chunk size
    schedule = MemorySchedule.last_increasing(GrowthRule(kind="power", c=0.5, beta=1.0))
    size = ensemble._ring_chunk(WalkParams(p=0.6), schedule, 10**5)
    assert size <= 167
    assert size * 50_001 * 4 <= 32 * 2**20
    assert ensemble._ring_chunk(WalkParams(p=0.6), MemorySchedule.last_fixed(10),
                                10**4) == ensemble.DEFAULT_CHUNK


# a fill never writes this into cells past its draws (a prefix could be
# 0xFFFF, but only where the fill writes)
_UNSET = 0xFFFF


def _prefixes(uniforms: np.ndarray) -> np.ndarray:
    """floor(u 2^16) of each uniform u: what a fill writes for it."""
    return np.floor(uniforms * 2.0**16).astype(np.uint16)


@pytest.mark.parametrize("seed, run_lo", [
    (2**63 + 12345, 0),
    (2**64 - 1, 2**63),
    (-7, 2**64 - 2),
])
def test_chunk_streams_resume_each_run_stream(seed, run_lo):
    # consecutive fills continue every run's own stream, across key wrap-around
    count, sizes = 3, (8, 2048, 4, 5)
    streams = _ChunkStreams(seed, run_lo)
    out = np.full((count, 2048), _UNSET, dtype=np.uint16)
    parts = [[] for _ in range(count)]
    for nb in sizes:
        streams.fill(out, nb)
        for j in range(count):
            parts[j].append(out[j, :nb].copy())
    for j in range(count):
        want = _prefixes(make_run_stream(seed, run_lo + j).random(sum(sizes)))
        assert np.array_equal(np.concatenate(parts[j]), want), j


def test_chunk_streams_refuse_resume_inside_philox_block():
    streams = _ChunkStreams(5, 0)
    out = np.empty((2, 8), dtype=np.uint16)
    streams.fill(out, 6)
    with pytest.raises(ValueError, match="multiple of 4"):
        streams.fill(out, 4)
    with pytest.raises(ValueError, match="multiple of 4"):
        streams.words(1, 6, 4)
    streams.words(1, 8, 7)
    with pytest.raises(ValueError, match="multiple of 4"):
        streams.words(1, 15, 4)


@pytest.mark.parametrize("seed, run_lo", [
    (2**63 + 12345, 0),
    (2**64 - 1, 2**64 - 3),
    (-7, 2**64 - 1),
])
def test_chunk_streams_seek_one_run(seed, run_lo):
    # after a fill of every run, words serves one run's outputs from a later
    # draw, piece after piece, across key wrap-around; fills are not moved
    # and carry on every run's stream
    streams = _ChunkStreams(seed, run_lo)
    streams.fill(np.empty((3, 8), dtype=np.uint16), 8)
    for j in (2, 0, 1):
        parts = [streams.words(j, drawn, nb) for drawn, nb in ((12, 16), (28, 4), (32, 7))]
        assert all(part.dtype == np.uint64 for part in parts)
        want = make_run_stream(seed, run_lo + j).bit_generator.random_raw(12 + 27)[12:]
        assert np.array_equal(np.concatenate(parts), want), j
    out = np.empty((3, 4), dtype=np.uint16)
    streams.fill(out, 4)
    for j in range(3):
        want = _prefixes(make_run_stream(seed, run_lo + j).random(12)[8:])
        assert np.array_equal(out[j], want), j


@pytest.mark.parametrize("path", ["template", "batched"])
def test_words_out_of_order_between_fills_move_no_stream(monkeypatch, path):
    # words holds no position: calls out of order, across runs and before,
    # at and past the fills' draw, each give that run's own outputs, and the
    # next fill, which draws through words on the template path, carries on
    # every run's stream
    monkeypatch.setattr(ensemble, "_SHORT_RUNS", 1 if path == "batched" else 10**9)
    calls = _batched_fills(monkeypatch)
    seed, run_lo = 2**63 + 12345, 2**64 - 2
    streams = _ChunkStreams(seed, run_lo)
    out = np.empty((3, 8), dtype=np.uint16)
    streams.fill(out, 8)
    raw = [make_run_stream(seed, run_lo + j).bit_generator.random_raw(64) for j in range(3)]
    for j, drawn, nb in [(2, 40, 9), (0, 0, 4), (1, 8, 16), (2, 4, 3), (0, 52, 12)]:
        assert np.array_equal(streams.words(j, drawn, nb), raw[j][drawn:drawn + nb]), (j, drawn)
    streams.fill(out, 8)
    for j in range(3):
        want = _prefixes(make_run_stream(seed, run_lo + j).random(16)[8:])
        assert np.array_equal(out[j], want), j
    assert calls == ([(3, 8)] * 2 if path == "batched" else [])


@st.composite
def _cut_thresholds(draw):
    """Thresholds on the 2^-53 grid, either float neighbour of one, or subnormal."""
    t = draw(st.integers(0, 2**53)) * 2.0**-53
    side = draw(st.sampled_from([None, -math.inf, math.inf]))
    on_grid = t if side is None else float(np.nextafter(t, side))
    return draw(st.just(on_grid) | st.floats(0.0, 2.0**-1022, allow_subnormal=True))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(t=_cut_thresholds(), c=st.integers(0, 2**53), key=st.integers(0, 2**64 - 1))
@example(t=0.0, c=0, key=0)
@example(t=1.0, c=2**53, key=1)
@example(t=2.0**-53, c=1, key=2)
@example(t=5e-324, c=0, key=3)
@example(t=float(np.nextafter(1.0, 0.0)), c=2**53 - 1, key=4)
def test_word_cut_is_the_double_compare(t, c, key):
    # random() makes output x the double (x >> 11) 2^-53; the frozen tail
    # counts x < _word_cut(t) instead, through the kernel's own helpers.
    # Words sit one below, on and one above c 2^11, for c the cut's and any
    # other, and are checked one by one and against numpy's own doubles.
    cut, scratch = ensemble._word_cut(t), np.empty(64, dtype=bool)
    for e in {cut >> 11, c}:
        for x in (e * 2**11 - 1, e * 2**11, e * 2**11 + 1):
            if 0 <= x < 2**64:
                below = ensemble._count_below(np.array([x], dtype=np.uint64), cut, scratch)
                assert below == ((x >> 11) * 2.0**-53 < t), (x, cut)
    words = make_run_stream(key, 7).bit_generator.random_raw(64)
    doubles = make_run_stream(key, 7).random(64)
    assert ensemble._count_below(words, cut, scratch) == np.count_nonzero(doubles < t)


def _slab_bytes(runs: int, nb: int) -> int:
    """The scratch budget of a slab of `runs` runs drawing nb uniforms: eight
    uint64 lanes per run and block of four."""
    return runs * 8 * 8 * -(-nb // 4)


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
    monkeypatch.setattr(ensemble, "_SLAB_BYTES", _slab_bytes(3, nb))
    calls = _batched_fills(monkeypatch)
    streams = _ChunkStreams(seed, run_lo)
    if drawn:
        streams.fill(np.empty((7, drawn), dtype=np.uint16), drawn)
    out = np.full((7, ensemble._SHORT_FILL + 2), _UNSET, dtype=np.uint16)
    streams.fill(out, nb)
    assert calls[-1] == (7, nb)
    for j in range(7):
        want = _prefixes(make_run_stream(seed, run_lo + j).random(drawn + nb)[drawn:])
        assert np.array_equal(out[j, :nb], want), j
    assert (out[:, nb:] == _UNSET).all()


def test_short_fills_of_many_runs_are_batched(monkeypatch):
    # the default thresholds: a 12-draw fill of _SHORT_RUNS runs is batched,
    # one run fewer or one draw over _SHORT_FILL is not
    calls = _batched_fills(monkeypatch)
    runs = ensemble._SHORT_RUNS
    _ChunkStreams(5, 0).fill(np.empty((runs - 1, 12), dtype=np.uint16), 12)
    _ChunkStreams(5, 0).fill(np.empty((runs, 64), dtype=np.uint16), ensemble._SHORT_FILL + 1)
    assert calls == []
    out = np.empty((runs, 12), dtype=np.uint16)
    _ChunkStreams(5, 2**64 - 1).fill(out, 12)
    assert calls == [(runs, 12)]
    for j in (0, 1, runs - 1):
        want = _prefixes(make_run_stream(5, 2**64 - 1 + j).random(12))
        assert np.array_equal(out[j], want), j


def test_batched_fill_refuses_resume_inside_philox_block(monkeypatch):
    monkeypatch.setattr(ensemble, "_SHORT_RUNS", 2)
    calls = _batched_fills(monkeypatch)
    streams = _ChunkStreams(5, 0)
    out = np.empty((2, 8), dtype=np.uint16)
    streams.fill(out, 6)
    assert calls == [(2, 6)]
    with pytest.raises(ValueError, match="multiple of 4"):
        streams.fill(out, 4)
    assert calls == [(2, 6)]


def test_one_run_fills_are_never_batched(monkeypatch):
    # a single path is a chunk of one run, below _SHORT_RUNS; a run's frozen
    # tail is never filled at all but drawn as output words from draw 12 on,
    # one run at a time, in 7 pieces of 12 and one of 1, while the head's
    # fill of the whole chunk is batched
    monkeypatch.setattr(ensemble, "_TIME_BLOCK", 16)
    monkeypatch.setattr(ensemble, "_TAIL_BLOCK", 12)
    calls = _batched_fills(monkeypatch)
    simulate_paths(WalkParams(p=0.7), MemorySchedule.first_increasing(), 40, (12, 40), 7, 3, 4)
    assert calls == []
    monkeypatch.setattr(ensemble, "_SHORT_RUNS", 1)
    draws, fills = [], []
    words, fill = _ChunkStreams.words, _ChunkStreams.fill
    monkeypatch.setattr(_ChunkStreams, "words", lambda self, j, drawn, nb: (
        draws.append((j, drawn, nb)), words(self, j, drawn, nb))[1])
    monkeypatch.setattr(_ChunkStreams, "fill",
                        lambda self, out, nb: (fills.append((len(out), nb)), fill(self, out, nb)))
    _simulate_chunk(WalkParams(p=0.7), MemorySchedule.first_fixed(9), (3, 12, 97), 7, 0, 4)
    assert draws == [(j, drawn, nb) for j in range(4)
                     for drawn, nb in zip(range(12, 97, 12), [12] * 7 + [1])]
    assert fills == calls == [(4, 12)]


def test_batched_fills_build_no_template():
    # _SHORT_RUNS runs of 12 draws, then 20 more, are served without the
    # template Philox; the first fill it serves builds it, and later ones
    # reuse it
    streams = _ChunkStreams(5, 0)
    out = np.empty((ensemble._SHORT_RUNS, ensemble._SHORT_FILL + 4), dtype=np.uint16)
    streams.fill(out, 12)
    streams.fill(out, 20)
    assert streams._tmpl is None
    streams.fill(out, ensemble._SHORT_FILL + 4)
    template = streams._tmpl
    assert template is not None
    streams.words(0, 64, 4)
    assert streams._tmpl is template
    want = _prefixes(make_run_stream(5, ensemble._SHORT_RUNS - 1).random(68))
    assert np.array_equal(out[-1, :ensemble._SHORT_FILL + 4], want[32:])


_MODULES_AFTER = """
import sys
import erwlab.cli
from erwlab import EnsembleConfig, GrowthRule, MemorySchedule, WalkParams, ensemble, run_ensemble
ensemble._PREFIX_BITS = {bits}
run_ensemble(WalkParams(p={p}), MemorySchedule.{schedule}, EnsembleConfig(runs=300, n_grid=({n},)))
print(sorted(m for m in ("numpy.random", "concurrent.futures") if m in sys.modules))
"""


@pytest.mark.parametrize("p, schedule, n, bits, loaded", [
    # short-many's shape: one fill of 12 draws for 300 runs, batched
    (0.7, "first_increasing(GrowthRule())", 12, 16, []),
    # the same with 4-bit prefixes, whose ties (1 draw in 16) are settled
    # without the template
    (0.7, "first_increasing(GrowthRule())", 12, 4, []),
    # window-walk's: a 100-step fill, drawn from the template
    (0.6, "last_fixed(10)", 100, 16, ["numpy.random"]),
    # frozen-clt's: a batched head of 8 draws, then a streamed frozen tail
    (0.6, "first_fixed(5)", 1100, 16, ["numpy.random"]),
], ids=["short-many", "short-many-ties", "window-walk", "frozen-clt"])
def test_only_chunks_that_draw_from_the_template_load_numpy_random(p, schedule, n, bits, loaded):
    # in a fresh interpreter, a one-process ensemble loads numpy.random only
    # where a chunk draws from the template Philox, and never starts a pool
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = _MODULES_AFTER.format(p=p, schedule=schedule, n=n, bits=bits)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == str(loaded)


_MODULES_AT_FORK = """
import concurrent.futures
import os
import sys
import erwlab.cli
from erwlab import EnsembleConfig, GrowthRule, MemorySchedule, WalkParams, ensemble, run_ensemble
caller, task, start = os.getpid(), ensemble._chunk_task, concurrent.futures.ProcessPoolExecutor.__init__

def watched(args):
    before = set(sys.modules)
    try:
        return task(args)
    finally:
        if os.getpid() != caller:
            print("helper imported", sorted(set(sys.modules) - before), flush=True)

def starting(pool, *args, **kwargs):
    print("at fork", "numpy.random" in sys.modules, flush=True)
    start(pool, *args, **kwargs)

concurrent.futures.ProcessPoolExecutor.__init__ = starting
ensemble._chunk_task = watched
# two CPUs, so that the helper starts on a smaller machine too
ensemble._usable_cpus = lambda: 2
ensemble._PREFIX_BITS = {bits}
run_ensemble(WalkParams(p={p}), MemorySchedule.{schedule},
             EnsembleConfig(runs={runs}, n_grid=({n},), workers=2))
"""


@pytest.mark.parametrize("p, schedule, n, runs, bits, loaded", [
    # short-many's shape: two chunks of 300 runs, each one batched fill of 12
    (0.7, "first_increasing(GrowthRule())", 12, 600, 16, False),
    # the same with 4-bit prefixes, whose ties are settled without the template
    (0.7, "first_increasing(GrowthRule())", 12, 600, 4, False),
    # the same fills for chunks of 150 runs, below _SHORT_RUNS
    (0.7, "first_increasing(GrowthRule())", 12, 300, 16, True),
    # window-walk's: a 100-step fill, drawn from the template
    (0.6, "last_fixed(10)", 100, 600, 16, True),
    # frozen-clt's: a batched head of 8 draws, then a streamed frozen tail
    (0.6, "first_fixed(5)", 1100, 600, 16, True),
], ids=["short-many", "short-many-ties", "small-chunks", "window-walk", "frozen-clt"])
def test_numpy_random_is_loaded_before_the_helpers_fork(p, schedule, n, runs, bits, loaded):
    # in a fresh interpreter at workers = 2, the caller loads numpy.random
    # before the pool starts exactly where a chunk draws from the template,
    # so the helper inherits it and imports no module while it simulates
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = _MODULES_AT_FORK.format(p=p, schedule=schedule, n=n, runs=runs, bits=bits)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"at fork {loaded}", "helper imported []"]


@pytest.mark.parametrize("schedule, n_max, k_freeze, head", [
    # a memory that grows every step, or that has a window, never freezes
    (MemorySchedule.full(), 23, 24, 23),
    (MemorySchedule.full(), 24, 25, 24),
    (MemorySchedule.first_plus_recent(m=5, recent=3), 23, 24, 23),
    (MemorySchedule.first_plus_recent(m=5, recent=3), 24, 25, 24),
    (MemorySchedule.last_fixed(4), 23, 24, 23),
    (MemorySchedule.last_fixed(4), 24, 25, 24),
    # first_fixed(5) freezes at step 6, and its head rounds steps 1..5 up
    # to 8; a tail of _TIME_BLOCK = 16 steps or more is streamed
    (MemorySchedule.first_fixed(5), 23, 6, 23),
    (MemorySchedule.first_fixed(5), 24, 6, 8),
    # floor(sqrt(n)) = 8 from n = 64 to 80, and floor(log n) = 4 from 55 to 148
    (MemorySchedule.first_increasing(GrowthRule()), 79, 65, 79),
    (MemorySchedule.first_increasing(GrowthRule()), 80, 65, 64),
    (MemorySchedule.first_increasing(GrowthRule("log")), 71, 56, 71),
    (MemorySchedule.first_increasing(GrowthRule("log")), 72, 56, 56),
])
def test_head_is_what_a_chunk_fills(monkeypatch, schedule, n_max, k_freeze, head):
    # the chunk's fills draw `head` uniforms per run, and it streams a frozen
    # tail, draws head..n_max - 1 of every run, exactly when head < n_max
    monkeypatch.setattr(ensemble, "_TIME_BLOCK", 16)
    assert ensemble._head(schedule, n_max) == (k_freeze, head)
    fills, draws = [], []
    words, fill = _ChunkStreams.words, _ChunkStreams.fill
    monkeypatch.setattr(_ChunkStreams, "words", lambda self, j, drawn, nb: (
        draws.append((j, drawn, nb)), words(self, j, drawn, nb))[1])
    monkeypatch.setattr(_ChunkStreams, "fill",
                        lambda self, out, nb: (fills.append(nb), fill(self, out, nb)))
    _simulate_chunk(WalkParams(p=0.6, r=0.2), schedule, (n_max,), 5, 0, 3)
    assert sum(fills) == head
    tail = [(j, drawn, nb) for j, drawn, nb in draws if drawn >= head]
    assert tail == ([(j, head, n_max - head) for j in range(3)] if head < n_max else [])


def test_batched_fill_scratch_is_bounded():
    # 4096 runs are filled in slabs through eight reused buffers of at most
    # _SLAB_BYTES, however many draws each run takes, where the whole
    # chunk's lanes would take about 0.8 MB at 12 draws and 2 MB at 32
    for nb in (12, 20, ensemble._SHORT_FILL):
        out = np.empty((4096, nb), dtype=np.uint16)
        streams = _ChunkStreams(3, 0)
        tracemalloc.start()
        try:
            streams.fill(out, nb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19, (nb, peak)


@pytest.mark.parametrize("path", ["template", "batched"])
@pytest.mark.parametrize("runs", [1, 63, 65, 300])
def test_fill_into_a_time_major_block_matches_run_streams(monkeypatch, path, runs):
    # the kernel fills the transpose of a (draws, runs) block, whose rows are
    # strided: the template draws _TILE runs at a time into a stage (63, 65
    # and 300 runs end inside one), and the batched path writes each Philox
    # word as row segments, here in slabs of 64 to 128 runs.  The last fill
    # is not a multiple of 4, and the keys of 63 runs or more wrap past
    # 2^64 - 1.  words then serves one run's outputs and leaves the fills
    # where they were: after 47 draws, which no fill may resume.
    monkeypatch.setattr(ensemble, "_SHORT_RUNS", 1 if path == "batched" else 10**9)
    monkeypatch.setattr(ensemble, "_SLAB_BYTES", _slab_bytes(64, ensemble._SHORT_FILL))
    calls = _batched_fills(monkeypatch)
    seed, run_lo, sizes = 2**63 + 11, 2**64 - 50, (8, ensemble._SHORT_FILL, 7)
    streams = _ChunkStreams(seed, run_lo)
    block = np.empty((max(sizes), runs), dtype=np.uint16)
    parts = []
    for nb in sizes:
        block.fill(_UNSET)
        streams.fill(block.T, nb)
        assert (block[nb:] == _UNSET).all()
        parts.append(block[:nb].copy())
    drawn = sum(sizes)
    got = np.concatenate(parts)
    for j in range(runs):
        want = _prefixes(make_run_stream(seed, run_lo + j).random(drawn))
        assert np.array_equal(got[:, j], want), j
    assert calls == ([(runs, nb) for nb in sizes] if path == "batched" else [])
    for j in {0, runs // 2, runs - 1}:
        words = np.concatenate([streams.words(j, 12, 8), streams.words(j, 20, 5)])
        want = make_run_stream(seed, run_lo + j).bit_generator.random_raw(12 + 13)[12:]
        assert np.array_equal(words, want), j
    with pytest.raises(ValueError, match=f"after {drawn} draws"):
        streams.fill(block.T, 8)
    assert len(calls) == (len(sizes) if path == "batched" else 0)


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


_MODULES_AFTER_KS = """
import sys
import numpy as np
import erwlab.cli
from erwlab import LimitCdf, ks_statistic
sample = np.round(3.0 * np.sin(np.arange(20_000.0)), 2)  # ties and zeros
ks_statistic(sample, LimitCdf(1.0, 4.5, 0.0))
ks_statistic(sample, LimitCdf(0.7, 4.5, 0.3))
print("numpy.ma" in sys.modules)
"""


def test_ks_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call; a clt-check-sized KS,
    # with and without an atom, in a fresh interpreter must not load it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _MODULES_AFTER_KS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[-2] == "False"


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


@pytest.mark.parametrize("key0, key1", [(0, 0), (2**64 - 1, 2**64 - 1), (12345, 2**63 + 7)])
@pytest.mark.parametrize("counter", [0, 5, 2**64 - 1, 2**128 + 2**64 - 1, 2**256 - 1])
def test_philox_words_are_numpys_philox(key0, key1, counter):
    # the block of counter + 1, carried into the second word at 2^64 - 1 and
    # wrapped to zero at 2^256 - 1, from plain ints
    generator = np.random.Philox(key=np.array([key0, key1], dtype=np.uint64))
    state = generator.state
    state["state"]["counter"] = np.array([counter >> s & (2**64 - 1) for s in (0, 64, 128, 192)],
                                         dtype=np.uint64)
    state["buffer_pos"] = 4
    generator.state = state
    assert ensemble._philox_words(key0, key1, counter) == tuple(generator.random_raw(4).tolist())


def test_chunk_streams_recompute_one_exact_uniform():
    # uniform(j, drawn) is draw `drawn` of run run_lo + j, keys wrapping past
    # 2^64 - 1, and leaves the fills where they were
    streams = _ChunkStreams(-7, 2**64 - 2)
    out = np.empty((4, 8), dtype=np.uint16)
    streams.fill(out, 8)
    for j in range(4):
        want = make_run_stream(-7, 2**64 - 2 + j).random(13)
        assert [streams.uniform(j, d) for d in (0, 3, 4, 12)] == want[[0, 3, 4, 12]].tolist(), j
    streams.fill(out, 4)
    assert np.array_equal(out[3, :4], _prefixes(make_run_stream(-7, 1).random(12)[8:]))


@pytest.mark.parametrize("bits", [2, 4])
@pytest.mark.parametrize("path", ["template", "batched"])
@pytest.mark.parametrize("params", [WalkParams(p=0.7, s=0.2), DELAYED], ids=["r0", "delayed"])
@pytest.mark.parametrize("schedule, n_max, head", [
    # a 4-step window: direct steps while it fills, then table steps
    (MemorySchedule.last_fixed(4), 40, 40),
    # a growing block whose sizes repeat: table and direct steps
    (MemorySchedule.first_increasing(GrowthRule(c=1.5, beta=0.3)), 40, 40),
    # first-fixed(5) freezes at step 6, and its frozen rows run to step 20
    # across the edge of the 16-step blocks
    (MemorySchedule.first_fixed(5), 20, 20),
    # a head of 8 steps, then a streamed frozen tail
    (MemorySchedule.first_fixed(5), 40, 8),
], ids=["window", "growing", "frozen-rows", "frozen-tail"])
def test_ties_between_prefixes_and_cuts_are_settled_exactly(monkeypatch, bits, path, params,
                                                             schedule, n_max, head):
    # with 2- or 4-bit prefixes a quarter or a sixteenth of the compares tie,
    # and every tie is settled from the draw's exact uniform: the chunk is
    # the reference's, bit for bit, on 70 runs whose keys wrap past 2^64 - 1
    monkeypatch.setattr(ensemble, "_PREFIX_BITS", bits)
    monkeypatch.setattr(ensemble, "_TIME_BLOCK", 16)
    monkeypatch.setattr(ensemble, "_SHORT_RUNS", 1 if path == "batched" else 10**9)
    calls = _batched_fills(monkeypatch)
    ties, uniform = [], _ChunkStreams.uniform
    monkeypatch.setattr(_ChunkStreams, "uniform",
                        lambda self, j, drawn: (ties.append(drawn), uniform(self, j, drawn))[1])
    seed, run_lo, runs = 2**63 + 5, 2**64 - 30, 70
    grid = (1, 9, 16, 17, n_max)
    chunk = _simulate_chunk(params, schedule, grid, seed, run_lo, run_lo + runs)
    for j in range(runs):
        got = [(n, int(chunk[n][0][j]), int(chunk[n][1][j])) for n in grid]
        assert got == reference_path(params, schedule, grid, seed, run_lo + j), j
    assert (len(calls) > 0) == (path == "batched")
    # ties at the first and last steps of the head, and on both sides of
    # the edge between its blocks where it has one
    assert {0, head - 1} | ({15, 16} if head > 16 else set()) <= set(ties)
