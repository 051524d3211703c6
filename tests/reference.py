"""Slow per-step reference for the chunk kernel, one run at a time.

It shares only MemorySchedule.split, _cut_points and the run streams with
the kernel: M_n comes from prefix sums of the steps, and each step takes one
make_run_stream(...).random() draw.
"""

from erwlab import make_run_stream
from erwlab.walk import _cut_points


def memory_view(csum, cnz, schedule, n):
    """(size, sum, nonzero) of M_n, from csum[i] = X_1 + .. + X_i and cnz[i] = N*_i."""
    b, w = schedule.split(n)
    lo = max(b, n - w)
    return b + n - lo, csum[b] + csum[n] - csum[lo], cnz[b] + cnz[n] - cnz[lo]


def reference_path(params, schedule, grid, master_seed, run_index):
    """[(n, S_n, N*_n) for n in grid] for run run_index of the seeded ensemble."""
    rng = make_run_stream(master_seed, run_index)
    csum, cnz = [0], [0]
    for k in range(1, grid[-1] + 1):
        if k == 1:
            t1, t2 = params.first_step_thresholds()
        else:
            size, sm, nz = memory_view(csum, cnz, schedule, k - 1)
            t1, t2 = _cut_points(params.p, params.q, params.r, params.p + params.q,
                                 float(size), sm, nz)
        u = rng.random()
        x = 1 if u < t1 else 0 if u < t2 else -1
        csum.append(csum[-1] + x)
        cnz.append(cnz[-1] + (x != 0))
    return [(n, csum[n], cnz[n]) for n in grid]
