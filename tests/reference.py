"""Slow per-step reference for the chunk kernel, one run at a time.

It shares only MemorySchedule.split, _cut_points and the run streams with
the kernel: M_n comes from prefix sums of the steps and of their absolute
values, and each step takes one make_run_stream(...).random() draw.
reference_path hands _cut_points the memory's counts of +1 and -1 steps,
both of them even where no step can be 0.

cut_points_from_sums is the oracle for _cut_points: the cut points from the
memory's sum and nonzero count, the form the kernel once kept.
"""

from erwlab import make_run_stream
from erwlab.walk import _cut_points


def memory_view(csum, cnz, schedule, n):
    """(size, sum, nonzero) of M_n, from csum[i] = X_1 + .. + X_i and cnz[i] = N*_i."""
    b, w = schedule.split(n)
    lo = max(b, n - w)
    return b + n - lo, csum[b] + csum[n] - csum[lo], cnz[b] + cnz[n] - cnz[lo]


def cut_points_from_sums(p, q, r, w, size, sm, nz):
    """(t1, t2) from the sum sm and nonzero count nz of a memory of size steps.

    t1 = (p * n_plus + q * n_minus) / size and
    t2 = t1 + (r + w * (size - nz) / size), evaluated in that order with
    n_plus = (nz + sm) / 2 and n_minus = (nz - sm) / 2; sm and nz are floats.
    """
    t1 = nz + sm
    t1 *= 0.5
    n_minus = nz - sm
    n_minus *= 0.5
    t1 *= p
    n_minus *= q
    t1 += n_minus
    t1 /= size
    t2 = size - nz
    t2 *= w
    t2 /= size
    t2 += r
    t2 += t1
    return t1, t2


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
                                 float(size), (nz + sm) // 2, (nz - sm) // 2)
        u = rng.random()
        x = 1 if u < t1 else 0 if u < t2 else -1
        csum.append(csum[-1] + x)
        cnz.append(cnz[-1] + (x != 0))
    return [(n, csum[n], cnz[n]) for n in grid]
