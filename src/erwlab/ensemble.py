"""Parallel trajectory ensembles with deterministic seeding and fit statistics.

Every run i draws from its own counter-based stream keyed by
(master_seed, i) and consumes exactly one uniform per step, so ensembles are
bit-reproducible whatever the chunking or worker count.  Chunks of runs are
stepped together with vectorized state updates; the reducer assembles
per-checkpoint samples in run order.

With workers = k the calling process is one of the k processes that simulate
chunks.  It starts k - 1 helpers (fewer if there are fewer chunks), each
holding up to two chunks from the front of the list, one running and one
queued, and runs chunks from the back itself, the last pending one always
among them.  Results are stored by chunk index.

Uniforms are drawn in time blocks of _TIME_BLOCK per run, a multiple of 4,
into one run-major array (a row per run).  Between blocks a run's Philox4x64
state is therefore just (key, counter = draws / 4) with an empty output
buffer, so streams are resumed by writing that state, never by saving and
restoring one per run.  Time blocks serve the per-step head of the walk and
walks whose frozen tail is short; a long frozen tail is drawn run by run
(see below).

Writing a run's state and calling random() costs about a microsecond,
however few uniforms the run draws.  A short block for many runs, such as
all 12 steps of a walk at n = 12, is therefore not drawn run by run: Philox
is counter-based, so every (key, counter) block is computed for all runs at
once with numpy's uint64 arithmetic, bit for bit as numpy's Philox gives it.
That takes about 300 array operations over every (run, block of 4 uniforms)
pair, so its cost per run grows with each block where the template's hardly
does: it pays only for short fills of many runs.  Longer fills, and every
one-run fill, keep the template.

This module holds the one simulation kernel, _simulate_chunk; a few paths
(simulate_paths) are one chunk, and a single path (simulate_path) is a chunk
of one run.  The kernel reads the memory set only
through MemorySchedule.split: after step n the walk recalls the first b steps
and the steps after max(b, n - w), with (b, w) = split(n).  It keeps the
block's statistics, which are (S, N*) themselves while b = n, and the
window's, from a ring of the last w steps; no variant name is consulted.

Steps whose thresholds follow the walk are taken one at a time, for every run
of the chunk at once.  Each step reads a contiguous row of a time-major tile:
_TILE steps of the block are copied out in _TILE x _TILE squares into one
reused buffer, never the whole block at once.  The window ring is time-major
as well, and the running sums are float64 arrays holding exact integers, so
_cut_points reads them without casts.

A schedule without a window (w = 0 throughout) stops changing at the freeze
step, the first k with b(k - 1) = b(n_max): k = m + 1 for first-fixed(m).
From there on every run's thresholds are constant, so they are computed once
per chunk, and a step only adds u < t1 to S and N* and subtracts u >= t2.
Time blocks then stop at the head: steps 1..k - 1 rounded up to a multiple
of 4, whose few frozen columns are counted in one vectorized pass over the
block.  Each run's frozen tail resumes its stream at counter head / 4 and is
drawn in pieces of _TAIL_BLOCK into one reused 1-D buffer that stays in
cache; every stretch between checkpoints is counted with 1-D compares and
count_nonzero, and the counts are added to (S, N*) after the last run.  A
tail shorter than _TIME_BLOCK, where a loop over runs would cost more than
it saves, stays in the time blocks and their vectorized pass.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from .limits import limit_moments
from .oracle import exact_mean_nonzeros, exact_moments_increasing
from .walk import MemorySchedule, Trajectory, WalkParams, _cut_points

__all__ = [
    "EnsembleConfig",
    "CheckpointStats",
    "EnsembleSummary",
    "BudgetError",
    "check_budget",
    "run_ensemble",
    "simulate_path",
    "simulate_paths",
    "ks_statistic",
    "kolmogorov_quantile",
    "total_variation",
    "variance_standard_error",
    "scale_factor",
    "schedule_alpha",
    "make_geometric_grid",
    "moment_convergence_table",
    "summary_to_csv",
]

DEFAULT_CHUNK = 4096
DEFAULT_MAX_STEPS = 5_000_000_000

# Uniforms drawn per run per stream fill: _TIME_BLOCK for every run of a
# chunk at once, _TAIL_BLOCK for one run's frozen tail.  _ChunkStreams resumes
# a stream at counter draws / 4, so every fill but the last must draw a
# multiple of 4.  Each tail piece costs one Philox state write, so pieces are
# as long as still fits the buffer in cache: 128 KB of doubles.
_TIME_BLOCK = 2048
_TAIL_BLOCK = 16384
if _TIME_BLOCK % 4 or _TAIL_BLOCK % 4:
    raise ValueError("_TIME_BLOCK and _TAIL_BLOCK must be multiples of 4, "
                     f"got {_TIME_BLOCK} and {_TAIL_BLOCK}")

# A fill of at most _SHORT_FILL uniforms for at least _SHORT_RUNS runs is
# computed in numpy for every run at once (_philox_uniforms), in slabs of at
# most _SHORT_SLAB runs so that its scratch space stays near 240 KB at 12
# draws.  Measured CPU time per run, batched against template: on 4032 runs
# 0.3x at 12 draws and 0.5x at 32, breaking even at 70 to 80; at 12 draws
# 0.8x on 256 runs, breaking even at 160 to 190.
_SHORT_RUNS = 256
_SHORT_FILL = 32
_SHORT_SLAB = 1024

# Steps per time-major tile of the per-step loop, and runs per square copied
# into it.  A tile of a 4096-run chunk is 2 MB, where the whole time block
# would be 64 MB; the squares keep the strided reads of the copy within few
# memory pages at a time, about 3x faster than one transposing copy.
_TILE = 64


class BudgetError(RuntimeError):
    """Requested ensemble exceeds the configured step budget."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble shape: independent runs, checkpoint grid, seed, statistic tag.

    workers counts the processes that simulate chunks, the caller included:
    run_ensemble starts at most workers - 1 helper processes.
    """

    runs: int
    n_grid: tuple[int, ...]
    master_seed: int = 12345
    scaled_statistic: str = "sqrt(m)/n"
    workers: int = 1
    chunk_size: int = DEFAULT_CHUNK
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("need at least one run")
        grid = tuple(int(x) for x in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
            raise ValueError("n_grid must be strictly increasing and >= 1")
        object.__setattr__(self, "n_grid", grid)
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


def scale_factor(tag: str, n: int, m: int, params: WalkParams) -> float:
    """Normalization multiplier applied to S_n (or N*_n for the zeros tag)."""
    if tag == "none":
        return 1.0
    if tag == "1/sqrt(n)":
        return 1.0 / math.sqrt(n)
    if tag == "sqrt(m)/n":
        return math.sqrt(m) / n
    if tag == "sqrt(m/log m)/n":
        if m < 2:
            raise ValueError("critical scaling needs m >= 2")
        return math.sqrt(m / math.log(m)) / n
    if tag == "m^(2(1-p))/n":
        return m ** (2.0 * (1.0 - params.p)) / n
    if tag == "m^(1+q-p)/n":
        return m ** (1.0 + params.q - params.p) / n
    if tag == "m^r/n":
        return m**params.r / n
    raise ValueError(f"unknown scaling tag {tag!r}")


def schedule_alpha(schedule: MemorySchedule) -> float:
    """lim m_n / n for the schedule: 1 for full memory, c for beta = 1, else 0."""
    if schedule.variant == "full":
        return 1.0
    g = schedule.growth
    if g is not None and g.kind == "power" and g.beta == 1.0:
        return min(1.0, g.c)
    return 0.0


def make_geometric_grid(n_max: int, points: int = 8) -> tuple[int, ...]:
    """Checkpoint grid n_max / 2^j, ascending; geometric so slow log effects show."""
    grid = sorted({max(1, n_max >> j) for j in range(points)})
    return tuple(grid)


# ---------------------------------------------------------------------------
# chunk simulation
# ---------------------------------------------------------------------------


class _ChunkStreams:
    """Per-run Philox streams served through one template bit generator.

    Run j's stream is Philox4x64 keyed by (master_seed, run_lo + j) with the
    counter starting at zero, exactly as make_run_stream builds it.  Each
    counter value yields four 64-bit outputs and random() takes one per
    double, so after d draws, with d a multiple of 4, a stream's whole state
    is (key, counter = d / 4) with its output buffer used up.  Every fill
    therefore starts from a state written directly into the shared template:
    nothing is read back and no per-run state is kept between fills.  That
    needs every fill but the last to draw a multiple of 4 uniforms; a fill
    that would resume mid-buffer is refused.

    Fills serve the runs of the chunk in step, from run_lo on, a time block
    at a time.  seek(j, drawn) moves the streams to run run_lo + j after
    `drawn` of its draws: a fill of a one-row out then serves that run alone,
    and the next fill carries on where it stopped.  That is how a run's
    frozen tail is drawn, piece by piece, into one small buffer, with the
    same multiple-of-4 rule for every piece but the last.

    A fill of the chunk's runs of at most _SHORT_FILL uniforms for at least
    _SHORT_RUNS runs skips the template: _philox_uniforms computes the
    same blocks for every run at once.  The template's cost is a state write
    and a random() call per run, whatever nb is; the batched cost grows with
    each block of 4 uniforms, so it wins on short fills only.  Fills after a
    seek always use the template.
    """

    _MASK = 0xFFFFFFFFFFFFFFFF

    def __init__(self, master_seed: int, run_lo: int):
        self._tmpl = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._tmpl)
        self._run_lo = self._lo = run_lo
        self._drawn = 0
        self._one_run = False
        # one reusable state of plain ints: the setter copies it in, and
        # reads of list items are cheaper than of numpy arrays
        self._key = [master_seed & self._MASK, 0]
        self._counter = [0, 0, 0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def seek(self, j: int, drawn: int) -> None:
        """Make the next fill serve run run_lo + j alone, from its draw `drawn` on."""
        self._lo = self._run_lo + j
        self._drawn = drawn
        self._one_run = True

    def fill(self, out: np.ndarray, nb: int) -> None:
        """Fill out[j, :nb] with the next nb uniforms of the j-th run served."""
        if self._drawn % 4:
            raise ValueError(
                f"cannot resume Philox streams after {self._drawn} draws: "
                "only a multiple of 4 leaves the output buffer empty")
        if not self._one_run and len(out) >= _SHORT_RUNS and nb <= _SHORT_FILL:
            _philox_uniforms(out, nb, self._key[0], self._lo, self._drawn // 4)
        else:
            self._counter[0] = self._drawn // 4
            tmpl, random, state, key = self._tmpl, self._gen.random, self._state, self._key
            lo, mask = self._lo, self._MASK
            for j, row in enumerate(out[:, :nb]):
                key[1] = (lo + j) & mask
                tmpl.state = state
                random(out=row)
        self._drawn += nb


def _u64(value) -> np.ndarray:
    return np.array(value, dtype=np.uint64)


# Philox4x64-10 as numpy's Philox computes it: a round maps the counter words
# (x0, x1, x2, x3) to (hi(M1 x2) ^ x1 ^ k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1,
# lo(M0 x0)), and the key (k0, k1) grows by (W0, W1) between rounds.  Each
# multiplier is kept with its low and high 32 bits, all as 0-d arrays, which
# numpy takes with less overhead per call than scalars.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_M0, _M1 = ((_u64(m), _u64(m & 0xFFFFFFFF), _u64(m >> 32)) for m in _PHILOX_M)
_LOW32, _SHIFT32, _SHIFT11 = _u64(0xFFFFFFFF), _u64(32), _u64(11)
_TO_UNIT = np.array(2.0**-53)


def _mulhilo(m, b, hi, lo, bh, t) -> None:
    """hi, lo = the high and low 64 bits of m * b, from 32-bit halves.

    m is a (multiplier, low half, high half) triple; b is overwritten, and
    bh and t are scratch.  With b = bh 2^32 + bl: w1 = mh bl + (ml bl >> 32)
    and w2 = (w1 & L) + ml bh cannot overflow, and hi = mh bh + (w1 >> 32) +
    (w2 >> 32).
    """
    m, ml, mh = m
    np.multiply(b, m, out=lo)
    np.right_shift(b, _SHIFT32, out=bh)
    np.bitwise_and(b, _LOW32, out=b)
    np.multiply(b, ml, out=t)
    np.right_shift(t, _SHIFT32, out=t)
    np.multiply(b, mh, out=b)
    np.add(b, t, out=b)
    np.bitwise_and(b, _LOW32, out=t)
    np.right_shift(b, _SHIFT32, out=b)
    np.multiply(bh, ml, out=hi)
    np.add(hi, t, out=hi)
    np.right_shift(hi, _SHIFT32, out=hi)
    np.add(hi, b, out=hi)
    np.multiply(bh, mh, out=bh)
    np.add(hi, bh, out=hi)


def _philox_uniforms(out: np.ndarray, nb: int, key0: int, run_lo: int, counter: int) -> None:
    """Fill out[j, :nb] with the uniforms that random() draws from Philox keyed
    (key0, run_lo + j) after its counter was set to `counter`, in numpy.

    numpy adds 1 to the counter before each block of four outputs, so the
    blocks are those of counters counter + 1, counter + 2, ..., and output
    x becomes the double (x >> 11) 2^-53.  Lanes are laid out (block, run), and
    runs are taken in slabs of at most _SHORT_SLAB through ten reused buffers,
    so the scratch space stays fixed however many runs are filled.
    """
    rows = len(out)
    blocks = -(-nb // 4)
    slabs = -(-rows // _SHORT_SLAB)
    size = -(-rows // slabs)
    mask = 0xFFFFFFFFFFFFFFFF
    m0, (w0, w1) = _PHILOX_M[0], _PHILOX_W
    # Round 1 on counter (c, 0, 0, 0) has mulhi(M1, 0) = 0, so it gives
    # (key0, 0, hi(M0 c) ^ k1, lo(M0 c)).  Round 2 then multiplies x0 = key0,
    # the same for every lane, and leaves x3 = lo(M0 key0).
    prods = [m0 * c for c in range(counter + 1, counter + 1 + blocks)]
    hi_c = _u64([p >> 64 for p in prods])[:, None]
    p = m0 * key0
    x2_r2 = _u64([(p >> 64) ^ (c & mask) for c in prods])[:, None]
    x3_r2 = _u64(p & mask)
    keys0 = [_u64((key0 + r * w0) & mask) for r in range(10)]
    step1 = _u64(w1)
    bufs = np.empty((10, blocks * size), dtype=np.uint64)
    ramp = np.arange(size, dtype=np.uint64)
    key1 = np.empty(size, dtype=np.uint64)
    for s in range(slabs):
        r0, r1 = s * rows // slabs, (s + 1) * rows // slabs
        n = r1 - r0
        x0, x1, x2, x3, h0, l0, h1, l1, bh, t = (b[:blocks * n].reshape(blocks, n)
                                                for b in bufs)
        k1 = key1[:n]
        np.add(ramp[:n], _u64((run_lo + r0) & mask), out=k1)
        np.bitwise_xor(hi_c, k1, out=x2)
        np.add(k1, step1, out=k1)
        _mulhilo(_M1, x2, h1, x1, bh, t)
        np.bitwise_xor(h1, keys0[1], out=x0)
        np.bitwise_xor(x2_r2, k1, out=x2)
        x3[...] = x3_r2
        for r in range(2, 10):
            np.add(k1, step1, out=k1)
            _mulhilo(_M0, x0, h0, l0, bh, t)
            _mulhilo(_M1, x2, h1, l1, bh, t)
            np.bitwise_xor(h1, x1, out=x0)
            np.bitwise_xor(x0, keys0[r], out=x0)
            np.bitwise_xor(h0, x3, out=x2)
            np.bitwise_xor(x2, k1, out=x2)
            x1, l1 = l1, x1
            x3, l0 = l0, x3
        for k, word in enumerate((x0, x1, x2, x3)):
            cols = out[r0:r1, k:nb:4]
            word = word[:cols.shape[1]]
            np.right_shift(word, _SHIFT11, out=word)
            np.multiply(word.T, _TO_UNIT, out=cols)


def _simulate_chunk(
    params: WalkParams,
    schedule: MemorySchedule,
    grid: tuple[int, ...],
    master_seed: int,
    run_lo: int,
    run_hi: int,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Simulate runs [run_lo, run_hi); returns {checkpoint: (S, N*)} arrays."""
    n_max = grid[-1]
    count = run_hi - run_lo
    p, q, r = params.p, params.q, params.r
    w = p + q
    t1f, t2f = params.first_step_thresholds()
    streams = _ChunkStreams(master_seed, run_lo)
    # Running sums are float64 holding exact integers, so _cut_points reads
    # them without casts; checkpoints are handed out as int64.
    S = np.zeros(count)
    nstar = np.zeros(count)
    grid_set = set(grid)
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def record(k: int) -> None:
        out[k] = (S.astype(np.int64), nstar.astype(np.int64))

    # After step n the walk recalls M_n = {1..b} U {lo + 1..n}, where
    # (b, win) = split(n) and lo = max(b, n - win).  While b = n the block's
    # statistics are (S, N*); from the first n with b < n they are
    # (bsum, bnz) over steps 1..bsize, grown from the rows in `joining`.  The
    # window's are (wsum, wnz), kept from a ring of the last win_max steps.
    b_max, win_max = schedule.split(n_max)
    n = b = lo = bsize = 0
    bsum = bnz = None
    joining: deque[np.ndarray] = deque()
    ring = np.zeros((win_max, count), dtype=np.int8)
    wsum = np.zeros(count)
    wnz = np.zeros(count)
    sm = np.empty(count)
    nz = np.empty(count)

    def thresholds() -> tuple[np.ndarray, np.ndarray]:
        """Every run's cut points for step n + 1, which reads M_n."""
        if lo == n:
            block = (S, nstar) if b == n else (bsum, bnz)
            return _cut_points(p, q, r, w, float(b), *block)
        if not b:
            return _cut_points(p, q, r, w, float(n - lo), wsum, wnz)
        np.add(bsum, wsum, out=sm)
        np.add(bnz, wnz, out=nz)
        return _cut_points(p, q, r, w, float(b + n - lo), sm, nz)

    # Without a window M_n stops changing once b reaches b(n_max): from the
    # step that first reads it on, every run's thresholds are constant.  Time
    # blocks stop at the head, the steps before the freeze step rounded up to
    # whole Philox blocks, when a tail of _TIME_BLOCK steps or more is left
    # to be drawn and counted one run at a time.
    k_freeze = n_max + 1
    head = n_max
    if not win_max:
        k_freeze = 2 + bisect.bisect_left(range(1, n_max), b_max,
                                          key=lambda j: schedule.split(j)[0])
        tail_from = -(-(k_freeze - 1) // 4) * 4
        if n_max - tail_from >= _TIME_BLOCK:
            head = tail_from
    frozen = None

    uniforms = np.empty((count, min(_TIME_BLOCK, head)))
    tile = np.empty((min(_TILE, head), count))
    lt = np.empty(count, dtype=bool)
    ge = np.empty(count, dtype=bool)
    x = np.empty(count, dtype=np.int8)
    xf = np.empty(count)
    nzf = np.empty(count)
    done = 0
    while done < head:
        nb = min(_TIME_BLOCK, head - done)
        streams.fill(uniforms, nb)
        # per-step stepping reads one time slice at a time: copy the block's
        # per-step part into time-major tiles so each slice is contiguous
        stepped = min(nb, max(0, k_freeze - 1 - done))
        for t0 in range(0, stepped, _TILE):
            tn = min(_TILE, stepped - t0)
            for r0 in range(0, count, _TILE):
                tile[:tn, r0:r0 + _TILE] = uniforms[r0:r0 + _TILE, t0:t0 + tn].T
            for k, u in enumerate(tile[:tn], done + t0 + 1):
                t1, t2 = thresholds() if k > 1 else (t1f, t2f)
                np.less(u, t1, out=lt)
                np.greater_equal(u, t2, out=ge)
                np.subtract(lt.view(np.int8), ge.view(np.int8), out=x)
                np.copyto(xf, x)
                np.multiply(xf, xf, out=nzf)
                b_k, win_k = schedule.split(k)
                if bsum is None and b_k < k:
                    # the block falls behind the walk for the first time, at
                    # b_k = k - 1: its statistics are (S, N*) before step k
                    bsum, bnz, bsize = S.copy(), nstar.copy(), k - 1
                if bsum is not None:
                    if k <= b_max:
                        joining.append(x.copy())
                    for _ in range(bsize, b_k):
                        row = joining.popleft()
                        bsum += row
                        bnz += row != 0
                    bsize = b_k
                lo_k = max(b_k, k - win_k)
                if win_max:
                    # steps lo+1.. leave the window, or steps lo_k+1..lo
                    # rejoin it; step k - win_max leaves before step k takes
                    # its ring slot
                    for i in range(lo, min(lo_k, k - 1)):
                        old = ring[i % win_max]
                        wsum -= old
                        wnz -= old != 0
                    for i in range(lo_k, lo):
                        old = ring[i % win_max]
                        wsum += old
                        wnz += old != 0
                    ring[(k - 1) % win_max] = x
                    if lo_k < k:
                        wsum += xf
                        wnz += nzf
                S += xf
                nstar += nzf
                n, b, lo = k, b_k, lo_k
                if k in grid_set:
                    record(k)
        if stepped < nb:
            if frozen is None:
                frozen = thresholds()
            u = uniforms[:, stepped:nb]
            plus = u < frozen[0][:, None]
            minus = u >= frozen[1][:, None]
            i0 = 0
            for c in [c for c in grid if done + stepped < c < done + nb] + [done + nb]:
                i1 = c - done - stepped
                n_plus = np.count_nonzero(plus[:, i0:i1], axis=1)
                n_minus = np.count_nonzero(minus[:, i0:i1], axis=1)
                S += n_plus - n_minus
                nstar += n_plus + n_minus
                if c in grid_set:
                    record(c)
                i0 = i1
        done += nb
    if head == n_max:
        return out

    # The frozen tail: each run resumes its stream at draw `head` and is drawn
    # in pieces of _TAIL_BLOCK into one reused buffer, which stays in cache.
    # A piece is compared and counted per segment between checkpoints; the
    # pieces and their segments are the same for every run, so their views
    # are cut once.  Counts are added to (S, N*) segment by segment after.
    t1, t2 = frozen if frozen is not None else thresholds()
    ends = [c for c in grid if head < c < n_max] + [n_max]
    buf = np.empty((1, min(_TAIL_BLOCK, n_max - head)))
    tail_lt = np.empty(buf.shape[1], dtype=bool)
    tail_ge = np.empty(buf.shape[1], dtype=bool)
    pieces = []
    for p0 in range(head, n_max, _TAIL_BLOCK):
        nb = min(_TAIL_BLOCK, n_max - p0)
        cuts = [0] + [c - p0 for c in ends if p0 < c < p0 + nb] + [nb]
        pieces.append((nb, buf[0, :nb], tail_lt[:nb], tail_ge[:nb],
                       [(bisect.bisect_left(ends, p0 + i1), tail_lt[i0:i1], tail_ge[i0:i1])
                        for i0, i1 in zip(cuts, cuts[1:])]))
    n_plus = np.zeros((len(ends), count), dtype=np.int64)
    n_minus = np.zeros((len(ends), count), dtype=np.int64)
    count_nonzero = np.count_nonzero
    for j, (t1j, t2j) in enumerate(zip(t1.tolist(), t2.tolist())):
        streams.seek(j, head)
        for nb, u, lt_u, ge_u, parts in pieces:
            streams.fill(buf, nb)
            np.less(u, t1j, out=lt_u)
            np.greater_equal(u, t2j, out=ge_u)
            for s, lt_s, ge_s in parts:
                n_plus[s, j] += count_nonzero(lt_s)
                n_minus[s, j] += count_nonzero(ge_s)
    for c, up, down in zip(ends, n_plus, n_minus):
        S += up - down
        nstar += up + down
        record(c)
    return out


def simulate_paths(
    params: WalkParams,
    schedule: MemorySchedule,
    n_max: int,
    checkpoints: Sequence[int],
    master_seed: int,
    run_lo: int,
    run_hi: int,
) -> list[Trajectory]:
    """Runs [run_lo, run_hi) of the ensemble keyed by master_seed, as trajectories.

    They are simulated as one chunk, so each path is the same run of any
    ensemble with that seed, bit for bit.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if run_hi <= run_lo:
        raise ValueError("need run_lo < run_hi")
    grid = tuple(sorted(set(int(c) for c in checkpoints)))
    if not grid or grid[0] < 1 or grid[-1] > n_max:
        raise ValueError("checkpoints must be a nonempty subset of [1, n_max]")
    chunk = _simulate_chunk(params, schedule, grid, master_seed, run_lo, run_hi)
    return [Trajectory(tuple((k, int(chunk[k][0][j]), int(chunk[k][1][j])) for k in grid),
                       params, schedule)
            for j in range(run_hi - run_lo)]


def simulate_path(
    params: WalkParams,
    schedule: MemorySchedule,
    n_max: int,
    checkpoints: Sequence[int],
    master_seed: int,
    run_index: int,
) -> Trajectory:
    """Run run_index of the ensemble keyed by master_seed, as one trajectory."""
    return simulate_paths(params, schedule, n_max, checkpoints, master_seed,
                          run_index, run_index + 1)[0]


def _chunk_bounds(runs: int, chunk_size: int, workers: int) -> list[int]:
    """Cut [0, runs) into the fewest chunks of at most chunk_size runs whose
    count is a multiple of workers (or is runs), with sizes that differ by at
    most one; returns the chunk edges."""
    chunks = -(-runs // chunk_size)
    chunks = min(runs, -(-chunks // workers) * workers)
    return [i * runs // chunks for i in range(chunks + 1)]


def _chunk_task(args) -> tuple[int, dict[int, tuple[np.ndarray, np.ndarray]]]:
    idx, params, schedule, grid, seed, lo, hi = args
    return idx, _simulate_chunk(params, schedule, grid, seed, lo, hi)


def _run_chunks(tasks: list, workers: int) -> list[dict]:
    """Each task's chunk result, by chunk index, from the caller and
    min(workers, len(tasks)) - 1 helper processes.

    Helpers take chunks from the front, two each at most (one running, one
    queued), so none idles while the caller finishes a chunk; the caller
    takes them from the back and keeps the last pending one for itself.
    """
    results: list[Optional[dict]] = [None] * len(tasks)
    helpers = min(workers, len(tasks)) - 1
    if helpers < 1:
        for task in tasks:
            idx, res = _chunk_task(task)
            results[idx] = res
        return results
    pending, running = deque(tasks), set()
    with ProcessPoolExecutor(max_workers=helpers) as pool:
        while pending or running:
            while len(pending) > 1 and len(running) < 2 * helpers:
                running.add(pool.submit(_chunk_task, pending.popleft()))
            if pending:
                idx, res = _chunk_task(pending.pop())
                results[idx] = res
            done, running = wait(running, timeout=0 if pending else None,
                                 return_when=FIRST_COMPLETED)
            for future in done:
                idx, res = future.result()
                results[idx] = res
    return results


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckpointStats:
    """Scaled-statistic summary at one checkpoint time."""

    n: int
    m: int
    count: int
    scaled_mean: float
    scaled_var: float
    scaled_skew: float
    degenerate_fraction: float
    nstar_scaled_mean: float


@dataclass
class EnsembleSummary:
    """Per-checkpoint summaries plus the final checkpoint's raw sample."""

    params: WalkParams
    schedule: MemorySchedule
    config: EnsembleConfig
    stats: list[CheckpointStats]
    ecdf: np.ndarray          # sorted scaled sample at the final checkpoint
    final_S: np.ndarray       # raw positions, run order
    final_Nstar: np.ndarray   # raw nonzero counts, run order
    ks_final: float = float("nan")

    def final_stats(self) -> CheckpointStats:
        return self.stats[-1]


def check_budget(runs: int, n_max: int, max_steps: int) -> None:
    """Raise BudgetError if runs walks of n_max steps exceed max_steps."""
    total = runs * n_max
    if total > max_steps:
        raise BudgetError(
            f"ensemble needs {total:.3g} steps "
            f"({runs} runs x {n_max} steps), over the budget "
            f"{max_steps:.3g}; raise max_steps if this is intended"
        )


def run_ensemble(
    params: WalkParams, schedule: MemorySchedule, config: EnsembleConfig
) -> EnsembleSummary:
    """Run the configured ensemble and summarise the scaled statistic.

    The calling process simulates chunks too, so config.workers processes
    run in all: the caller and up to workers - 1 helpers, each helper holding
    at most two chunks.  Output is bit-identical for a fixed master seed
    regardless of the worker count: runs own their streams and are
    reassembled in run order.
    """
    n_max = config.n_grid[-1]
    check_budget(config.runs, n_max, config.max_steps)
    bounds = _chunk_bounds(config.runs, config.chunk_size, config.workers)
    tasks = [
        (i, params, schedule, config.n_grid, config.master_seed, lo, hi)
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    results = _run_chunks(tasks, config.workers)

    zeros_stat = config.scaled_statistic == "m^r/n"
    stats: list[CheckpointStats] = []
    ecdf = np.empty(0)
    final_S = np.empty(0, dtype=np.int64)
    final_N = np.empty(0, dtype=np.int64)
    for n in config.n_grid:
        S = np.concatenate([res[n][0] for res in results])
        nstar = np.concatenate([res[n][1] for res in results])
        m = schedule.block_size(n)
        factor = scale_factor(config.scaled_statistic, n, m, params)
        base = nstar if zeros_stat else S
        scaled = base.astype(np.float64) * factor
        mu = float(scaled.mean())
        var = float(scaled.var(ddof=1)) if scaled.size > 1 else 0.0
        centered = scaled - mu
        m2 = float((centered**2).mean())
        m3 = float((centered**3).mean())
        skew = m3 / m2**1.5 if m2 > 0.0 else 0.0
        degen = float((nstar == 0).mean())
        if params.r > 0.0:
            nz_scaled = float(nstar.mean()) * (m**params.r / n)
        else:
            nz_scaled = float("nan")
        stats.append(CheckpointStats(n, m, int(scaled.size), mu, var, skew, degen, nz_scaled))
        if n == n_max:
            ecdf = np.sort(scaled)
            final_S = S
            final_N = nstar
    return EnsembleSummary(params, schedule, config, stats, ecdf, final_S, final_N)


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------


def ks_statistic(sample: np.ndarray, target: Callable[[float], float]) -> float:
    """Sup-distance between the sample ECDF and a target distribution function.

    Both one-sided gaps are evaluated at every sample value and at every
    declared atom of the target (targets may expose .atoms() returning
    (location, mass) pairs); left limits of the target subtract the atom mass,
    so mixtures with a point mass are compared side by side with the ECDF.
    """
    xs = np.sort(np.asarray(sample, dtype=np.float64))
    n = xs.size
    if n == 0:
        raise ValueError("empty sample")
    atoms = dict(target.atoms()) if hasattr(target, "atoms") else {}
    pts = np.unique(np.concatenate([xs, np.fromiter(atoms.keys(), dtype=np.float64)])
                    if atoms else xs)
    f_right = np.array([target(x) for x in pts])
    f_left = f_right - np.array([atoms.get(float(x), 0.0) for x in pts])
    ecdf_right = np.searchsorted(xs, pts, side="right") / n
    ecdf_left = np.searchsorted(xs, pts, side="left") / n
    d_right = np.abs(ecdf_right - f_right).max()
    d_left = np.abs(ecdf_left - f_left).max()
    return float(max(d_right, d_left))


def variance_standard_error(sample: np.ndarray) -> float:
    """Standard error of the unbiased sample variance, from the sample's own moments.

    Var(s^2) = mu_4 / N - sigma^4 (N - 3) / (N (N - 1)), with the central
    moments mu_4 and sigma^2 replaced by their sample estimates.
    """
    x = np.asarray(sample, dtype=np.float64)
    size = x.size
    if size < 4:
        raise ValueError("need at least four sample values")
    centered = x - x.mean()
    sq = centered * centered
    m2 = float(sq.mean())
    m4 = float((sq * sq).mean())
    return math.sqrt(max(0.0, m4 - m2 * m2 * (size - 3) / (size - 1)) / size)


def _kolmogorov_sf(x: float) -> float:
    if x < 0.05:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = math.exp(-2.0 * k * k * x * x)
        total += -term if k % 2 == 0 else term
        if term < 1e-18:
            break
    return 2.0 * total


def kolmogorov_quantile(confidence: float = 0.99) -> float:
    """x with P(sup-distance * sqrt(n) <= x) = confidence, asymptotically."""
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    lo, hi = 0.2, 4.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 1.0 - _kolmogorov_sf(mid) < confidence:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def total_variation(exact_marginal: dict[int, float], sample: np.ndarray) -> float:
    """TV distance between an exact integer-valued pmf and an empirical sample."""
    values, counts = np.unique(np.asarray(sample), return_counts=True)
    emp = {int(v): c / sample.size for v, c in zip(values, counts)}
    keys = set(exact_marginal) | set(emp)
    return 0.5 * sum(abs(exact_marginal.get(k, 0.0) - emp.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# convergence tables and reports
# ---------------------------------------------------------------------------


def moment_convergence_table(
    params: WalkParams,
    schedule: MemorySchedule,
    n_grid: Sequence[int],
) -> list[dict]:
    """Exact scaled moments per horizon against the limit targets.

    Each grid time n is treated as its own horizon with the block frozen at
    m_n, which is the family the limit statements describe.  Requires a
    first-block or full schedule (closed forms exist there).
    """
    alpha = schedule_alpha(schedule)
    report = limit_moments(params, alpha)
    rows = []
    for n in sorted(set(int(x) for x in n_grid)):
        mom = exact_moments_increasing(params, schedule, n)
        fac = scale_factor(report.normalization, n, mom.m, params)
        mean = mom.mean_Sn * fac
        var = mom.var_Sn * fac * fac
        gap = abs(var - report.limit_var) / abs(report.limit_var) if report.limit_var else float("nan")
        row = {
            "n": n,
            "m": mom.m,
            "scaled_mean": mean,
            "scaled_var": var,
            "limit_mean": report.limit_mean,
            "limit_var": report.limit_var,
            "rel_var_gap": gap,
        }
        if params.r > 0.0:
            zscaled = exact_mean_nonzeros(params, mom.m, n) * mom.m**params.r / n
            row["nstar_scaled_mean"] = zscaled
        rows.append(row)
    return rows


def summary_to_csv(summary: EnsembleSummary, fh: TextIO) -> None:
    """Deterministically formatted CSV: one row per checkpoint."""
    p = summary.params
    sched = summary.schedule
    cfg = summary.config
    fh.write(
        f"# ensemble p={p.p:.12g} q={p.q:.12g} r={p.r:.12g} s={p.s:.12g} "
        f"schedule={sched.variant} m={sched.m} recent={sched.recent}"
        + (f" growth={sched.growth.kind}:c={sched.growth.c:.12g}:beta={sched.growth.beta:.12g}"
           if sched.growth else "")
        + f" runs={cfg.runs} seed={cfg.master_seed} statistic={cfg.scaled_statistic}\n"
    )
    fh.write("n,m_n,scaled_mean,scaled_var,skew,ks,atom_fraction\n")
    last = summary.stats[-1].n
    for st in summary.stats:
        ks = summary.ks_final if st.n == last else float("nan")
        fh.write(
            f"{st.n},{st.m},{st.scaled_mean:.12g},{st.scaled_var:.12g},"
            f"{st.scaled_skew:.12g},{ks:.12g},{st.degenerate_fraction:.12g}\n"
        )
