"""Parallel trajectory ensembles with deterministic seeding and fit statistics.

Every run i draws from its own counter-based stream keyed by
(master_seed, i) and consumes exactly one uniform per step, so ensembles are
bit-reproducible whatever the chunking or worker count.  Chunks of runs are
stepped together with vectorized state updates; the reducer assembles
per-checkpoint samples in run order.

With workers = k the calling process is one of the k processes that simulate
chunks.  The pool's unit of work is the task: a contiguous range of whole
chunks, at most 8k tasks in all (_TASKS_PER_WORKER), since a task per chunk
pays the pool's queueing and pickling once per chunk, 124 times for 5 x 10^5
runs of 12 steps.  The caller starts k - 1 helpers (fewer if there are
fewer tasks, and never more than one fewer than the CPUs this process may
run on), each holding up to two tasks from the front of the list, one
running and one queued, and runs tasks from the back itself, the last
pending one always among them.  The tasks follow k alone, so the cap
changes no byte.  A task simulates its chunks one by one and writes each
chunk's S and N* at its offset into one array per checkpoint, in the
narrowest signed integer dtype that holds -n_max..n_max (int8 up to
n_max = 127); the reducer widens them to int64 in run order.  The pool is
created, and concurrent.futures imported, only in _run_chunks when it
starts helpers, so a run in one process never loads multiprocessing.
numpy.random costs each process that
imports it about 5 to 6 MB of RSS, some 3.4 MB of it OpenSSL's libcrypto,
which numpy.random.bit_generator loads through secrets and hashlib.  So
when the chunks will draw from the template Philox (see below), run_ensemble
loads numpy.random before the helpers fork: they inherit it and fault in
only the pages they run, where each would otherwise import it afresh at its
first template draw.  Where every fill is batched and no frozen tail is
streamed, no process loads it.

Uniforms are drawn in time blocks of _TIME_BLOCK per run, a multiple of 4,
into one time-major array (a row per step, a column per run), so each step
of the kernel reads a contiguous row.  Between blocks a run's Philox4x64
state is just (key, counter = draws / 4) with an empty output buffer, so
streams are resumed by writing that state, never by saving and restoring one
per run.  Time blocks serve the per-step head of the walk and walks whose
frozen tail is short; a long frozen tail is drawn run by run (see below).

Streams are drawn as their Philox output words; make_run_stream's random()
makes word x the uniform u = (x >> 11) 2^-53.  A time block keeps each u as
its 16-bit prefix h = floor(u 2^16) = x >> 48, an np.uint16.  A block of
1024 steps for 4096 runs so takes 8 MiB, not the 32 MiB of doubles, and it
is the largest array of a walk that steps every row, such as one with a
trailing window.  A step
compares h with the prefix cut c = min(floor(t 2^16), 2^16 - 1) of each cut
point t, and no decision changes: h < c gives u < (h + 1) 2^-16 <= c 2^-16
<= t, and h > c gives u >= h 2^-16 > t, since c < 2^16 - 1 is then
floor(t 2^16).  Only a tie, h = c, needs the exact double, 1 draw in 65536;
the step recomputes it from that draw's Philox block (_ChunkStreams.uniform,
plain ints, no template) and compares it with the run's t.  So a step pays
one equality and one count per cut for its ties, and a direct step's cut
points are made prefix cuts before its compares.

Writing a run's state and drawing its words costs about a microsecond,
however few uniforms the run draws.  A short block for many runs, such as
all 12 steps of a walk at n = 12, is therefore not drawn run by run: Philox
is counter-based, so every (key, counter) block is computed for all runs at
once with numpy's uint64 arithmetic, bit for bit as numpy's Philox gives it,
each output word shifted to its prefix and written as contiguous row
segments of the block.  That takes about 300 array operations over every
(run, block of 4 uniforms) pair, so its cost per run grows with each block
where the template's hardly does: it pays only for short fills of many runs.
Other fills draw each run's words from a template Philox whose state is
written per run (_ChunkStreams.words), _TILE runs at a time into a run-major
stage of words, which is shifted to prefixes in place and copied into the
block's columns.  Each chunk's _ChunkStreams builds its template at the
first words call, so a chunk whose fills are all batched and that streams
no frozen tail, as every chunk of 5 x 10^5 runs of 12 steps is, never
imports numpy.random.  On numpy 1.x `import numpy` loads numpy.random
anyway, and this saves nothing.

This module holds the one simulation kernel, _simulate_chunk; a few paths
(simulate_paths) are one chunk, and a single path is a chunk of one run.  The
kernel reads the memory set only through MemorySchedule.split: after step n
the walk recalls the first b steps and the steps after max(b, n - w), with
(b, w) = split(n).  It keeps statistics of three parts: the walk, the block
(the walk's own while b = n) and the window.  Steps whose thresholds follow
the walk are taken one at a time, for every run of the chunk at once.

Each part's statistics count its +1 and -1 steps, in one (rows, runs) array
of the narrowest signed integer dtype that holds -n_max..n_max.  Row 0
counts the +1 steps.  Row 1 counts the -1 steps and exists only where a step
can be 0 (r > 0); at r = 0 a memory of m steps holds m - plus of them.  So
an r = 0 step is one compare of its uniform with t1, whose boolean row is
added to the counts, and N*_n = n.  A ring keeps the walk's counts after
each of the last w + 1 steps, and its current slot is the walk, so a window
is one subtraction of two slots.  _cut_points takes the counts as they are,
and a checkpoint hands back S_n = plus - minus and N*_n = plus + minus.

A memory whose size held over the last step, such as a full window or a
growing block between its increments, takes its cut points from a table:
_cut_points over every count it can hold, 0..size at r = 0 and every (plus,
minus) pair at r > 0, once per size, kept with their prefix cuts, then one
take of prefix cuts per run; a tie reads its run's cut point from the table.
Its output does not depend on the counts' dtype, so the bits are those of
the direct call.  A table is used only where it has fewer entries than the
chunk has runs; a memory that grows every step, such as full memory or the
block of first-fixed(m) up to its freeze step, keeps the direct call.  So an
r = 0 window step is a subtraction, a take, a compare, a tie check and an
add.

A schedule without a window (w = 0 throughout) stops changing at the freeze
step, the first k with b(k - 1) = b(n_max): k = m + 1 for first-fixed(m).
From there on every run's thresholds are those of the freeze step, computed
once per chunk, and a stretch of steps needs only its count of uniforms below
t1, the +1 steps, and at or above t2, the -1 steps, which are added to the
walk's counts.  Time blocks then stop at the head: steps 1..k - 1 rounded up
to a multiple of 4, whose few frozen rows are stepped like the others.  Each
run's frozen tail resumes its stream at counter head / 4 and is drawn in
pieces of _TAIL_BLOCK words, never made doubles: u < t holds exactly when
the word is below the integer cut _word_cut(t), computed once per run.  Each
stretch between checkpoints takes a compare per cut, one if the cuts are
equal (always at r = 0), and the counts are added to the walk's after the
last run.  A tail shorter than _TIME_BLOCK, where a loop over runs
would cost more than it saves, stays in the time blocks, stepped like the
head's frozen rows.
"""

from __future__ import annotations

import bisect
import math
import os
from collections import deque
from dataclasses import dataclass
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
    "simulate_paths",
    "ks_statistic",
    "kolmogorov_quantile",
    "total_variation",
    "variance_standard_error",
    "scale_factor",
    "schedule_alpha",
    "moment_convergence_table",
    "summary_to_csv",
]

DEFAULT_CHUNK = 4096
DEFAULT_MAX_STEPS = 5_000_000_000

# Draws per run per stream fill: _TIME_BLOCK uniforms for every run of a
# chunk at once, _TAIL_BLOCK words for one run's frozen tail.  Streams
# resume at counter draws / 4, so every fill but the last must draw a
# multiple of 4.  Each tail piece costs one Philox state write, so pieces are
# long: 128 KB of words, which random_raw allocates afresh for each piece.
# A time block of DEFAULT_CHUNK runs holds 16-bit prefixes in 8 MiB.
# Shorter blocks mean more fills, each a state write per run; on a window
# walk the cut-point tables (thresholds in _simulate_chunk) pay for those of
# 1024-step blocks, and 512-step blocks of doubles were 13-16% slower.
_TIME_BLOCK = 1024
_TAIL_BLOCK = 16384
if _TIME_BLOCK % 4 or _TAIL_BLOCK % 4:
    raise ValueError("_TIME_BLOCK and _TAIL_BLOCK must be multiples of 4, "
                     f"got {_TIME_BLOCK} and {_TAIL_BLOCK}")

# A time block keeps the top _PREFIX_BITS bits of each Philox output word,
# floor(u 2^16) of its uniform u, as np.uint16.  Fixed at 16 (the width of
# the dtype); tests set it lower to make ties between a prefix and its cut
# frequent.
_PREFIX_BITS = 16

# A fill of at most _SHORT_FILL uniforms for at least _SHORT_RUNS runs is
# computed in numpy for every run at once (_philox_uniforms), in slabs of as
# many runs as keep its eight lane buffers within _SLAB_BYTES: 1536 runs at
# 12 draws, 576 at 32, and a peak near 340 KB at any draw count.  Measured
# CPU time per run, batched against template: on 4032 runs 0.3x at 12 draws
# and 0.5x at 32, breaking even at 70 to 80; at 12 draws 0.8x on 256 runs,
# breaking even at 160 to 190.
_SHORT_RUNS = 256
_SHORT_FILL = 32
_SLAB_BYTES = 288 * 1024

# Runs per run-major stage of a template fill into a time-major block:
# 512 KB of stage words for _TIME_BLOCK draws.
_TILE = 64

# The most bytes a chunk's window ring may take: 32 MiB, four times a time
# block of DEFAULT_CHUNK runs.  It is what a block of doubles took, so the
# chunks of a long window did not shrink when the block did: a linear window
# at n = 10^5 runs chunks of at most 167 runs, where 8 MiB would allow 41.
_RING_BYTES = 32 * 2**20

# The pool's unit of work is a task of whole chunks; an ensemble of many
# chunks is cut into at most this many tasks per worker.  On 124 chunks of a
# 12-step walk at 2 workers a task per chunk spent 50 ms over a perfect split
# in queueing and pickling; 4 or 8 tasks per worker took the same time, 16
# slightly more, and 2 raised the helper's peak RSS from 33 to 40 MB.
_TASKS_PER_WORKER = 8


class BudgetError(RuntimeError):
    """Requested ensemble exceeds the configured step budget."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble shape: independent runs, checkpoint grid, seed, statistic tag.

    workers counts the processes that simulate chunks, the caller included:
    run_ensemble starts at most workers - 1 helper processes, and no more
    than one fewer than the CPUs this process may run on.  The chunks follow
    workers whatever the CPUs, so the output does not depend on them.
    """

    runs: int
    n_grid: tuple[int, ...]
    master_seed: int = 12345
    scaled_statistic: str = "sqrt(m)/n"
    workers: int = 1
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("need at least one run")
        grid = tuple(int(x) for x in self.n_grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
            raise ValueError("n_grid must be strictly increasing and >= 1")
        object.__setattr__(self, "n_grid", grid)
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


# ---------------------------------------------------------------------------
# chunk simulation
# ---------------------------------------------------------------------------


class _ChunkStreams:
    """Per-run Philox streams of a chunk, drawn as 64-bit output words.

    Run j's stream is Philox4x64 keyed by (master_seed, run_lo + j) with the
    counter starting at zero, exactly as make_run_stream builds it.  Each
    counter value yields four 64-bit outputs x, and make_run_stream's
    random() makes each the uniform u = (x >> 11) 2^-53, so after d draws,
    with d a multiple of 4, a stream's whole state is (key, counter = d / 4)
    with its output buffer used up.  words(j, drawn, nb) writes that state
    into one shared template Philox and returns its next nb outputs; it
    holds no position of its own, and one that would resume mid-buffer is
    refused.  The template is built at the first words call, which imports
    numpy.random unless run_ensemble loaded it before its helpers forked.

    Fills serve the runs of the chunk in step, from run_lo on, a time block
    at a time, as 16-bit prefixes of the uniforms.  uniform(j, drawn)
    recomputes one draw's exact double in plain ints, and needs no template.

    A fill of at most _SHORT_FILL uniforms for at least _SHORT_RUNS runs
    skips the template: _philox_uniforms computes the same blocks for every
    run at once, which beats a state write per run on short fills only.  So
    a chunk whose fills are all batched and that streams no frozen tail
    never loads numpy.random (numpy 1.x loads it with numpy itself).
    """

    _MASK = 0xFFFFFFFFFFFFFFFF

    def __init__(self, master_seed: int, run_lo: int):
        self._tmpl = None
        self._run_lo = run_lo
        self._drawn = 0
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

    @staticmethod
    def _resume_at(drawn: int) -> int:
        """The counter that resumes a stream after `drawn` draws."""
        if drawn % 4:
            raise ValueError(f"cannot resume Philox streams after {drawn} draws: "
                             "only a multiple of 4 leaves the output buffer empty")
        return drawn // 4

    def words(self, j: int, drawn: int, nb: int) -> np.ndarray:
        """Outputs drawn..drawn + nb - 1 (from 0) of run run_lo + j, as a new
        np.uint64 array; no other stream and no fill is moved."""
        self._counter[0] = self._resume_at(drawn)
        self._key[1] = (self._run_lo + j) & self._MASK
        if self._tmpl is None:
            self._tmpl = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._tmpl.state = self._state
        return self._tmpl.random_raw(nb)

    def uniform(self, j: int, drawn: int) -> float:
        """Draw `drawn` (from 0) of run run_lo + j, the double random() makes
        of it, computed by _philox_words: no template, no stream moved."""
        words = _philox_words(self._key[0], (self._run_lo + j) & self._MASK, drawn // 4)
        return (words[drawn % 4] >> 11) * 2.0**-53

    def fill(self, out: np.ndarray, nb: int) -> None:
        """Fill the np.uint16 out[j, :nb] with the _PREFIX_BITS-bit prefixes
        floor(u 2^_PREFIX_BITS) = x >> (64 - _PREFIX_BITS) of the next nb
        uniforms u, output words x, of run run_lo + j; the rows of out may be
        strided, as a time-major block's transpose's are.  Words are drawn
        _TILE runs at a time into a contiguous stage, shifted there and
        copied into out; shifting each run's words into a strided row took
        about twice as long."""
        rows, drawn = out[:, :nb], self._drawn
        counter = self._resume_at(drawn)
        self._drawn += nb
        if _batched(len(rows), nb):
            _philox_uniforms(rows, nb, self._key[0], self._run_lo, counter)
            return
        stage = np.empty((min(_TILE, len(rows)), nb), dtype=np.uint64)
        for j0 in range(0, len(rows), len(stage)):
            part = stage[:len(rows) - j0]
            for i, row in enumerate(part, j0):
                row[...] = self.words(i, drawn, nb)
            part >>= 64 - _PREFIX_BITS
            rows[j0:j0 + len(part)] = part


def _batched(runs: int, nb: int) -> bool:
    """Whether a fill of nb uniforms for `runs` runs is computed for every
    run at once (_philox_uniforms) rather than drawn from the template."""
    return runs >= _SHORT_RUNS and nb <= _SHORT_FILL


def _word_cut(t: float) -> int:
    """The cut c in 0..2^64 with (x >> 11) 2^-53 < t exactly when x < c;
    random() makes 64-bit output x that double.  t 2^53 is exact, so
    x >> 11 < t 2^53 exactly when x >> 11 < ceil(t 2^53), that is when
    x < ceil(t 2^53) 2^11.  At t >= 1 the cut is 2^64, above every uint64."""
    return min(max(math.ceil(t * 2.0**53), 0), 2**53) << 11


def _count_below(words: np.ndarray, cut: int, scratch: np.ndarray) -> int:
    """How many uint64 words are below a _word_cut cut; 2^64 passes all."""
    if cut >> 64:
        return len(words)
    return np.count_nonzero(np.less(words, cut, out=scratch[:len(words)]))


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
_LOW32, _SHIFT32 = _u64(0xFFFFFFFF), _u64(32)


def _philox_words(key0: int, key1: int, counter: int) -> tuple[int, int, int, int]:
    """The four outputs of numpy's Philox keyed (key0, key1) after its counter
    was set to `counter`, in plain ints: the block of counter + 1, whose
    256-bit value is carried across the four counter words."""
    mask = 0xFFFFFFFFFFFFFFFF
    (m0, m1), (w0, w1) = _PHILOX_M, _PHILOX_W
    c = (counter + 1) & (2**256 - 1)
    x0, x1, x2, x3 = (c >> s & mask for s in (0, 64, 128, 192))
    for r in range(10):
        if r:
            key0, key1 = (key0 + w0) & mask, (key1 + w1) & mask
        p0, p1 = m0 * x0, m1 * x2
        x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ key0, p1 & mask, (p0 >> 64) ^ x3 ^ key1, p0 & mask
    return x0, x1, x2, x3


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
    """Fill the np.uint16 out[j, :nb] with the _PREFIX_BITS-bit prefixes of
    the uniforms that random() draws from Philox keyed (key0, run_lo + j)
    after its counter was set to `counter`, in numpy.

    numpy adds 1 to the counter before each block of four outputs, so the
    blocks are those of counters counter + 1, counter + 2, ...  random()
    makes output x the double u = (x >> 11) 2^-53, so floor(u 2^16) is
    x >> 48, with no double made.  Lanes are laid out (block, run),
    and runs are taken in slabs through eight reused buffers of at most
    _SLAB_BYTES in all, so the scratch space stays fixed however many runs
    and draws are filled.  Word k of a block is written to columns k, k + 4,
    ...: contiguous row segments when out is a time-major block's transpose.
    """
    rows = len(out)
    blocks = -(-nb // 4)
    slabs = -(-rows // max(1, _SLAB_BYTES // (64 * blocks)))
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
    step1, shift = _u64(w1), _u64(64 - _PREFIX_BITS)
    bufs = np.empty((8, blocks * size), dtype=np.uint64)
    ramp = np.arange(size, dtype=np.uint64)
    key1 = np.empty(size, dtype=np.uint64)
    for s in range(slabs):
        r0, r1 = s * rows // slabs, (s + 1) * rows // slabs
        n = r1 - r0
        x0, x1, x2, x3, a, b, bh, t = (buf[:blocks * n].reshape(blocks, n) for buf in bufs)
        k1 = key1[:n]
        np.add(ramp[:n], _u64((run_lo + r0) & mask), out=k1)
        np.bitwise_xor(hi_c, k1, out=x2)
        np.add(k1, step1, out=k1)
        _mulhilo(_M1, x2, a, x1, bh, t)
        np.bitwise_xor(a, keys0[1], out=x0)
        np.bitwise_xor(x2_r2, k1, out=x2)
        x3[...] = x3_r2
        for r in range(2, 10):
            # x0 and x2 are spent by their products, so the round's new
            # words land in the two free buffers and in theirs
            np.add(k1, step1, out=k1)
            _mulhilo(_M0, x0, a, b, bh, t)
            np.bitwise_xor(a, x3, out=a)
            np.bitwise_xor(a, k1, out=a)
            _mulhilo(_M1, x2, x0, x3, bh, t)
            np.bitwise_xor(x0, x1, out=x0)
            np.bitwise_xor(x0, keys0[r], out=x0)
            x1, x2, x3, a, b = x3, a, b, x1, x2
        for k, word in enumerate((x0, x1, x2, x3)):
            cols = out[r0:r1, k:nb:4]
            word = word[:cols.shape[1]]
            np.right_shift(word, shift, out=word)
            cols[...] = word.T


def _count_dtype(n_max: int) -> np.dtype:
    """The narrowest signed integer dtype that holds -n_max..n_max."""
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).max >= n_max)


def _head(schedule: MemorySchedule, n_max: int) -> tuple[int, int]:
    """(k_freeze, head) of a walk of n_max steps under `schedule`.

    Without a window M_n stops changing once b reaches b(n_max), so every
    step after the freeze step k_freeze, the first to read that memory,
    reuses the thresholds of step k_freeze; with one, k_freeze = n_max + 1.
    Time blocks stop at the head, the steps before the freeze step rounded
    up to whole Philox blocks, when a tail of _TIME_BLOCK steps or more is
    left to be drawn and counted one run at a time; the head's few frozen
    rows are stepped like the others.  Otherwise head = n_max.
    """
    b_max, win_max = schedule.split(n_max)
    if win_max:
        return n_max + 1, n_max
    k_freeze = 2 + bisect.bisect_left(range(1, n_max), b_max,
                                      key=lambda j: schedule.split(j)[0])
    tail_from = -(-(k_freeze - 1) // 4) * 4
    return k_freeze, tail_from if n_max - tail_from >= _TIME_BLOCK else n_max


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
    # Statistics are (rows, count) counts of the +1 steps and, only where a
    # step can be 0, of the -1 steps, in the narrowest signed integer dtype
    # that holds -n_max..n_max; checkpoints are handed out in it too.
    rows = 2 if r > 0.0 else 1
    grid_set = set(grid)
    dtype = _count_dtype(n_max)
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def record(k: int) -> None:
        plus = walk[0]
        if rows > 1:
            out[k] = (plus - walk[1], plus + walk[1])
        else:
            out[k] = (plus - (k - plus), np.full(count, k, dtype))

    # After step n the walk recalls M_n = {1..b} U {lo + 1..n}, where
    # (b, win) = split(n) and lo = max(b, n - win).  The ring holds the
    # walk's counts after each of the last win_max + 1 steps, C_n in slot
    # n % len(ring), so the walk is its current slot and the window is
    # C_n - C_lo.  While b = n the block's counts are the walk's; from the
    # first n with b < n they are a snapshot over steps 1..bsize, grown from
    # the step rows in `joining`.
    b_max, win_max = schedule.split(n_max)
    n = b = lo = bsize = last = 0
    block = None
    joining: deque[np.ndarray] = deque()
    ring = list(np.zeros((win_max + 1, rows, count), dtype=dtype))
    walk = ring[0]
    window = np.empty((rows, count), dtype=dtype)
    both = np.empty((rows, count), dtype=dtype)
    table = (np.empty(0),) * 4
    # a direct step's prefix cuts, rewritten at each such step
    cuts, scratch = list(np.empty((rows, count), dtype=np.uint16)), np.empty(count)
    scale, top = np.array(2.0**_PREFIX_BITS), np.array(2.0**_PREFIX_BITS - 1)

    def prefix_cuts(t1, t2, out, floats) -> tuple[np.ndarray, np.ndarray]:
        """The prefix cuts min(floor(t 2^b), 2^b - 1), b = _PREFIX_BITS, of
        the cut points t1 and, at r > 0, t2, in the np.uint16 arrays of the
        list out (a 2-d array's rows cost more to iterate); floats is
        scratch of their shape."""
        for t, c in zip((t1, t2), out):
            np.multiply(t, scale, out=floats)
            np.minimum(floats, top, out=floats)
            c[...] = floats
        return out[0], out[-1]

    def cut_points(size: int, counts) -> tuple[np.ndarray, np.ndarray]:
        return _cut_points(p, q, r, w, float(size), counts[0], counts[1] if rows > 1 else None)

    def thresholds():
        """Every run's cut points for step n + 1, which reads M_n, as the
        prefix cuts (c1, c2) and exact(j) = (t1[j], t2[j]).  They come from
        a table of every count the memory can hold, which keeps both, where
        its size held over the last step and the table has fewer entries
        than the chunk has runs."""
        nonlocal table, last
        if lo == n:
            mem, size = (walk if b == n else block), b
        else:
            mem = np.subtract(walk, ring[lo % len(ring)], out=window)
            size = n - lo
            if b:
                mem, size = np.add(block, window, out=both), b + size
        held, last = size == last, size
        entries = (size + 1) ** rows
        if not held or entries >= count:
            t1, t2 = cut_points(size, mem)
            return (*prefix_cuts(t1, t2, cuts, scratch), lambda j: (t1[j], t2[j]))
        if len(table[0]) != entries:
            t1, t2 = cut_points(size, np.indices((size + 1,) * rows).reshape(rows, entries))
            table = (t1, t2, *prefix_cuts(t1, t2, list(np.empty((rows, entries), dtype=np.uint16)),
                                          np.empty(entries)))
        t1, t2, c1, c2 = table
        key = mem[0]
        if rows > 1:
            key = np.multiply(key, size + 1, dtype=np.intp)
            key += mem[1]
        c1 = c1.take(key, mode="clip")
        c2 = c2.take(key, mode="clip") if rows > 1 else c1
        # at r = 0 the key is a view of the memory's counts, which the step's
        # ties read before it moves them (a frozen block never moves)
        return c1, c2, lambda j: (t1[key[j]], t2[key[j]])

    def settle(row: np.ndarray, k: int, side: int) -> None:
        """Decide the runs that `tie` marks in step k from their exact
        uniforms: row[j] says it is below t1 (side 0) or not below t2 (side
        1)."""
        for j in np.flatnonzero(tie).tolist():
            row[j] = (streams.uniform(j, k - 1) < exact(j)[side]) == (side == 0)

    k_freeze, head = _head(schedule, n_max)
    uniforms = np.empty((min(_TIME_BLOCK, head), count), dtype=np.uint16)
    # a step's rows: whether it is +1 and, where it can be 0, whether it is -1
    step = np.empty((rows, count), dtype=bool)
    up, down = step[0], step[-1]
    tie = np.empty(count, dtype=bool)
    c1, c2 = prefix_cuts(t1f, t2f, list(np.empty((rows, 1), dtype=np.uint16)), np.empty(1))
    exact = lambda j: (t1f, t2f)
    for done in range(0, head, _TIME_BLOCK):
        nb = min(_TIME_BLOCK, head - done)
        streams.fill(uniforms.T, nb)
        for k, h in enumerate(uniforms[:nb], done + 1):
            if 1 < k <= k_freeze:
                c1, c2, exact = thresholds()
            np.less(h, c1, out=up)
            if np.count_nonzero(np.equal(h, c1, out=tie)):
                settle(up, k, 0)
            if rows > 1:
                np.greater(h, c2, out=down)
                if np.count_nonzero(np.equal(h, c2, out=tie)):
                    settle(down, k, 1)
            b_k, win_k = schedule.split(k)
            if block is None and b_k < k:
                # the block falls behind the walk for the first time, at
                # b_k = k - 1: its counts are the walk's before step k
                block, bsize = walk.copy(), k - 1
            if block is not None:
                if k <= b_max:
                    joining.append(step.copy())
                for _ in range(bsize, b_k):
                    block += joining.popleft()
                bsize = b_k
            walk = np.add(walk, step, out=ring[k % len(ring)])
            n, b, lo = k, b_k, max(b_k, k - win_k)
            if k in grid_set:
                record(k)
    if head == n_max:
        return out

    # The frozen tail, time block freed: each run resumes at draw `head`, in
    # pieces of raw words whose checkpoint segments are cut once for all runs.
    if head < k_freeze:
        exact = thresholds()[2]
    t1, t2 = exact(slice(None))
    uniforms = h = None
    ends = [c for c in grid if head < c < n_max] + [n_max]
    pieces = []
    for p0 in range(head, n_max, _TAIL_BLOCK):
        nb = min(_TAIL_BLOCK, n_max - p0)
        cuts = [0] + [c - p0 for c in ends if p0 < c < p0 + nb] + [nb]
        pieces.append((p0, nb, [(bisect.bisect_left(ends, p0 + i1), i0, i1)
                                for i0, i1 in zip(cuts, cuts[1:])]))
    below = np.empty(pieces[0][1], dtype=bool)
    counts = np.empty((count, 2, len(ends)), dtype=np.int64)
    for j, (t1j, t2j) in enumerate(zip(t1.tolist(), t2.tolist())):
        c1, c2 = _word_cut(t1j), _word_cut(t2j)
        up, down = [0] * len(ends), [0] * len(ends)
        for p0, nb, parts in pieces:
            words = streams.words(j, p0, nb)
            for s, i0, i1 in parts:
                n1 = _count_below(words[i0:i1], c1, below)
                up[s] += n1
                down[s] += i1 - i0 - (n1 if c2 == c1 else
                                      _count_below(words[i0:i1], c2, below))
        counts[j] = up, down
    for c, moves in zip(ends, counts.transpose(2, 1, 0)):
        walk += moves[:rows]
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


def _ring_chunk(params: WalkParams, schedule: MemorySchedule, n_max: int) -> int:
    """DEFAULT_CHUNK, cut so that a chunk's window ring takes at most
    _RING_BYTES.  The ring holds w(n_max) + 1 slots of each run's counts:
    (rows, runs) arrays in the count dtype, with a row of -1 steps only at
    r > 0."""
    ring = ((schedule.split(n_max)[1] + 1) * (2 if params.r > 0.0 else 1)
            * _count_dtype(n_max).itemsize)
    return max(1, min(DEFAULT_CHUNK, _RING_BYTES // ring))


def _chunk_bounds(runs: int, max_runs: int, workers: int) -> list[int]:
    """Cut [0, runs) into the fewest chunks of at most max_runs runs whose
    count is a multiple of workers (or is runs), with sizes that differ by at
    most one; returns the chunk edges."""
    chunks = -(-runs // max_runs)
    chunks = min(runs, -(-chunks // workers) * workers)
    return [i * runs // chunks for i in range(chunks + 1)]


def _chunk_task(args) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Simulate the whole chunks between consecutive edges, one
    _simulate_chunk call each; returns {checkpoint: (S, N*)} over runs
    [edges[0], edges[-1]), each chunk written at its offset."""
    params, schedule, grid, seed, edges = args
    size, dtype = edges[-1] - edges[0], _count_dtype(grid[-1])
    out = {k: (np.empty(size, dtype), np.empty(size, dtype)) for k in grid}
    for lo, hi in zip(edges, edges[1:]):
        chunk = _simulate_chunk(params, schedule, grid, seed, lo, hi)
        for k, (S, nstar) in chunk.items():
            out[k][0][lo - edges[0]:hi - edges[0]] = S
            out[k][1][lo - edges[0]:hi - edges[0]] = nstar
    return out


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_chunks(tasks: list, workers: int) -> list[dict]:
    """Each task's result, in task order, from the caller and
    min(workers, len(tasks), _usable_cpus()) - 1 helper processes.

    Helpers take tasks from the front, two each at most (one running, one
    queued), so none idles while the caller finishes a task; the caller
    takes them from the back and keeps the last pending one for itself.
    """
    helpers = min(workers, len(tasks), _usable_cpus()) - 1
    if helpers < 1:
        return [_chunk_task(task) for task in tasks]
    # loaded here, so that a run without helpers never imports multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    results: list[Optional[dict]] = [None] * len(tasks)
    pending, running = deque(enumerate(tasks)), {}
    with ProcessPoolExecutor(max_workers=helpers) as pool:
        while pending or running:
            while len(pending) > 1 and len(running) < 2 * helpers:
                i, task = pending.popleft()
                running[pool.submit(_chunk_task, task)] = i
            if pending:
                i, task = pending.pop()
                results[i] = _chunk_task(task)
            done, _ = wait(running, timeout=0 if pending else None,
                           return_when=FIRST_COMPLETED)
            for future in done:
                results[running.pop(future)] = future.result()
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


def _third_moment(base: np.ndarray, factor: float, mu: float) -> float:
    """((base * factor - mu)**3).mean() over an integer sample, bit for bit.

    numpy's array power is elementwise and does not depend on an element's
    position, so a sample that spans no more values than it holds cubes each
    value once, in a table, and reads every cube from there.
    """
    lo, hi = int(base.min()), int(base.max())
    if hi - lo + 1 > base.size:
        return float(((base.astype(np.float64) * factor - mu) ** 3).mean())
    table = (np.arange(lo, hi + 1).astype(np.float64) * factor - mu) ** 3
    return float(table[base - lo].mean())


def run_ensemble(
    params: WalkParams, schedule: MemorySchedule, config: EnsembleConfig
) -> EnsembleSummary:
    """Run the configured ensemble and summarise the scaled statistic.

    The calling process simulates too, so config.workers processes run in
    all: the caller and up to workers - 1 helpers, capped at one fewer than
    the CPUs this process may run on.  The unit of work is a
    task of whole chunks, at most _TASKS_PER_WORKER per worker, and each
    helper holds at most two tasks.  A chunk holds at most DEFAULT_CHUNK
    runs, and fewer where its window ring would outgrow _RING_BYTES
    (_ring_chunk).  Chunks hand back S and N* in the narrowest integer dtype
    that holds +-n_max; final_S and final_Nstar are int64.  Output is
    bit-identical for a fixed master seed regardless of the worker count:
    runs own their streams and are reassembled in run order.
    """
    n_max = config.n_grid[-1]
    check_budget(config.runs, n_max, config.max_steps)
    bounds = _chunk_bounds(config.runs, _ring_chunk(params, schedule, n_max), config.workers)
    chunks = len(bounds) - 1
    count = min(chunks, _TASKS_PER_WORKER * config.workers)
    tasks = [
        (params, schedule, config.n_grid, config.master_seed,
         bounds[i * chunks // count:(i + 1) * chunks // count + 1])
        for i in range(count)
    ]
    # A chunk holds runs // chunks runs or one more, and its first fill is
    # its longest, so the smallest chunk's first fill decides whether any
    # fill draws from the template.  If one does, or a frozen tail is
    # streamed, numpy.random is loaded here, before any helper forks (numpy
    # 2 imports it at this first access).
    head = _head(schedule, n_max)[1]
    if head < n_max or not _batched(config.runs // chunks, min(_TIME_BLOCK, head)):
        np.random
    results = _run_chunks(tasks, config.workers)

    zeros_stat = config.scaled_statistic == "m^r/n"
    stats: list[CheckpointStats] = []
    ecdf = np.empty(0)
    final_S = np.empty(0, dtype=np.int64)
    final_N = np.empty(0, dtype=np.int64)
    for n in config.n_grid:
        S = np.concatenate([res[n][0] for res in results], dtype=np.int64)
        nstar = np.concatenate([res[n][1] for res in results], dtype=np.int64)
        m = schedule.block_size(n)
        factor = scale_factor(config.scaled_statistic, n, m, params)
        base = nstar if zeros_stat else S
        scaled = base.astype(np.float64) * factor
        mu = float(scaled.mean())
        var = float(scaled.var(ddof=1)) if scaled.size > 1 else 0.0
        # squared in place, and dropped before _third_moment's arrays exist
        centered = scaled - mu
        m2 = float(np.square(centered, out=centered).mean())
        del centered
        m3 = _third_moment(base, factor, mu)
        skew = m3 / m2**1.5 if m2 > 0.0 else 0.0
        degen = float((nstar == 0).mean())
        if params.r > 0.0:
            nz_scaled = float(nstar.mean()) * (m**params.r / n)
        else:
            nz_scaled = float("nan")
        stats.append(CheckpointStats(n, m, int(scaled.size), mu, var, skew, degen, nz_scaled))
        if n == n_max:
            # sorted in place: its mean and variance are already taken
            scaled.sort()
            ecdf = scaled
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
    pts = np.sort(np.concatenate([xs, np.fromiter(atoms, dtype=np.float64)])) if atoms else xs
    pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]  # np.unique loads numpy.ma
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
