"""Parallel trajectory ensembles with deterministic seeding and fit statistics.

Every run i draws from its own counter-based stream keyed by
(master_seed, i) and consumes exactly one uniform per step, so ensembles are
bit-reproducible whatever the chunking or worker count.  Chunks of runs are
stepped together with vectorized state updates; the reducer assembles
per-checkpoint samples in run order.

Uniforms are drawn in time blocks of _TIME_BLOCK per run, a multiple of 4.
Between blocks a run's Philox4x64 state is therefore just (key, counter =
draws / 4) with an empty output buffer, so streams are resumed by writing
that state, never by saving and restoring one per run.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from .limits import limit_moments
from .oracle import exact_mean_nonzeros, exact_moments_increasing
from .walk import MemorySchedule, WalkParams, _cut_points

__all__ = [
    "EnsembleConfig",
    "CheckpointStats",
    "EnsembleSummary",
    "BudgetError",
    "run_ensemble",
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

_I8_PLUS = np.int8(1)
_I8_ZERO = np.int8(0)
_I8_MINUS = np.int8(-1)

# Uniforms drawn per run per stream fill.  _ChunkStreams resumes a stream at
# counter draws / 4, so every fill but the last must draw a multiple of 4.
_TIME_BLOCK = 2048
if _TIME_BLOCK % 4:
    raise ValueError(f"_TIME_BLOCK must be a multiple of 4, got {_TIME_BLOCK}")


class BudgetError(RuntimeError):
    """Requested ensemble exceeds the configured step budget."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Ensemble shape: independent runs, checkpoint grid, seed, statistic tag."""

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
    """

    _MASK = 0xFFFFFFFFFFFFFFFF

    def __init__(self, master_seed: int, run_lo: int):
        self._tmpl = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = np.random.Generator(self._tmpl)
        self._lo = run_lo
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

    def fill(self, out: np.ndarray, nb: int) -> None:
        """Fill out[j, :nb] with the next nb uniforms of each run j."""
        if self._drawn % 4:
            raise ValueError(
                f"cannot resume Philox streams after {self._drawn} draws: "
                "only a multiple of 4 leaves the output buffer empty")
        self._counter[0] = self._drawn // 4
        tmpl, random, state, key = self._tmpl, self._gen.random, self._state, self._key
        lo, mask = self._lo, self._MASK
        for j, row in enumerate(out[:, :nb]):
            key[1] = (lo + j) & mask
            tmpl.state = state
            random(out=row)
        self._drawn += nb


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
    a, w = p - q, p + q
    t1f, t2f = params.first_step_thresholds()
    streams = _ChunkStreams(master_seed, run_lo)
    S = np.zeros(count, dtype=np.int64)
    nstar = np.zeros(count, dtype=np.int64)
    grid_set = set(grid)
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    variant = schedule.variant
    is_last = schedule.is_last_window
    is_first = schedule.is_first_block
    if is_last:
        w_max = schedule.block_size(n_max)
        ring = np.zeros((count, w_max), dtype=np.int8)
        wsum = np.zeros(count, dtype=np.int64)
        wnz = np.zeros(count, dtype=np.int64)
        w_prev = 0
    elif is_first:
        m_max = schedule.block_size(n_max)
        rec_k = schedule.recent if variant == "first-plus-recent" else 0
        rec = np.zeros((count, rec_k), dtype=np.int8) if rec_k else None
        # Prefix-frozen blocks (no growth rule) coincide with the full history
        # until they freeze, so a snapshot of (S, N*) at time m_max replaces
        # the step store entirely.
        snapshot = schedule.growth is None
        if snapshot:
            bsum = S
            bnz = nstar
        else:
            stored = np.zeros((count, m_max), dtype=np.int8)
            bsum = np.zeros(count, dtype=np.int64)
            bnz = np.zeros(count, dtype=np.int64)
            bsize = 0

    can_freeze = variant in ("first-fixed", "first-increasing")
    uniforms = np.empty((count, min(_TIME_BLOCK, n_max)), dtype=np.float64)
    done = 0
    while done < n_max:
        nb = min(_TIME_BLOCK, n_max - done)
        streams.fill(uniforms, nb)
        if can_freeze and done >= 1 and schedule.block_size(done) == m_max:
            # block complete: per-run thresholds are constant, so the whole
            # time block can be stepped in one vectorized pass
            if not snapshot:
                while bsize < m_max:
                    col = stored[:, bsize]
                    bsum += col
                    bnz += col != 0
                    bsize += 1
            t1, t2 = _cut_points(p, q, r, w, float(m_max), bsum, bnz)
            u = uniforms[:, :nb]
            x = np.where(u < t1[:, None], _I8_PLUS,
                         np.where(u < t2[:, None], _I8_ZERO, _I8_MINUS))
            hits = [c for c in grid if done < c <= done + nb]
            if hits and hits != [done + nb]:
                cs = x.cumsum(axis=1, dtype=np.int64)
                ns = (x != 0).cumsum(axis=1, dtype=np.int64)
                for c in hits:
                    idx = c - done - 1
                    out[c] = (S + cs[:, idx], nstar + ns[:, idx])
                S = S + cs[:, -1]
                nstar = nstar + ns[:, -1]
            else:
                S = S + x.sum(axis=1, dtype=np.int64)
                nstar = nstar + (x != 0).sum(axis=1, dtype=np.int64)
                if hits:
                    out[done + nb] = (S.copy(), nstar.copy())
            done += nb
            continue
        # per-step stepping reads one time slice at a time: transpose so each
        # slice is contiguous
        u_steps = np.ascontiguousarray(uniforms[:, :nb].T)
        for t in range(nb):
            k = done + t + 1  # index of the step being generated
            u = u_steps[t]
            if k == 1:
                x = np.where(u < t1f, _I8_PLUS, np.where(u < t2f, _I8_ZERO, _I8_MINUS))
            else:
                prev = k - 1
                if variant == "full":
                    t1, t2 = _cut_points(p, q, r, w, float(prev), S, nstar)
                elif is_last:
                    t1, t2 = _cut_points(p, q, r, w, float(w_prev), wsum, wnz)
                else:
                    m = schedule.block_size(prev)
                    if not snapshot:
                        while bsize < m:
                            col = stored[:, bsize]
                            bsum += col
                            bnz += col != 0
                            bsize += 1
                    if rec_k:
                        lo = max(m, prev - rec_k) + 1
                        sm = bsum.astype(np.float64)
                        nz = bnz.astype(np.float64)
                        size = m
                        for i in range(lo, prev + 1):
                            col = rec[:, (i - 1) % rec_k]
                            sm = sm + col
                            nz = nz + (col != 0)
                            size += 1
                        t1, t2 = _cut_points(p, q, r, w, float(size), sm, nz)
                    else:
                        t1, t2 = _cut_points(p, q, r, w, float(m), bsum, bnz)
                x = np.where(u < t1, _I8_PLUS, np.where(u < t2, _I8_ZERO, _I8_MINUS))
            if is_last:
                w_k = schedule.block_size(k)
                if w_prev == w_k:  # window full: step k - w_k leaves
                    old = ring[:, (k - w_k - 1) % w_max]
                    wsum -= old
                    wnz -= old != 0
                ring[:, (k - 1) % w_max] = x
                wsum += x
                wnz += x != 0
                w_prev = w_k
            elif is_first:
                if not snapshot and k <= m_max:
                    stored[:, k - 1] = x
                if rec_k:
                    rec[:, (k - 1) % rec_k] = x
            S += x
            nstar += x != 0
            if is_first and snapshot and k == m_max:
                bsum = S.copy()  # the block's statistics, frozen from here on
                bnz = nstar.copy()
            if k in grid_set:
                out[k] = (S.copy(), nstar.copy())
        done += nb
    return out


def _chunk_task(args) -> tuple[int, dict[int, tuple[np.ndarray, np.ndarray]]]:
    idx, params, schedule, grid, seed, lo, hi = args
    return idx, _simulate_chunk(params, schedule, grid, seed, lo, hi)


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


def run_ensemble(
    params: WalkParams, schedule: MemorySchedule, config: EnsembleConfig
) -> EnsembleSummary:
    """Run the configured ensemble and summarise the scaled statistic.

    Output is bit-identical for a fixed master seed regardless of the worker
    count: runs own their streams and are reassembled in run order.
    """
    n_max = config.n_grid[-1]
    total = config.runs * n_max
    if total > config.max_steps:
        raise BudgetError(
            f"ensemble needs {total:.3g} steps "
            f"({config.runs} runs x {n_max} steps), over the budget "
            f"{config.max_steps:.3g}; raise max_steps if this is intended"
        )
    bounds = list(range(0, config.runs, config.chunk_size)) + [config.runs]
    tasks = [
        (i, params, schedule, config.n_grid, config.master_seed, lo, hi)
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    ]
    results: list[Optional[dict]] = [None] * len(tasks)
    if config.workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for idx, res in pool.map(_chunk_task, tasks, chunksize=1):
                results[idx] = res
    else:
        for task in tasks:
            idx, res = _chunk_task(task)
            results[idx] = res

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
