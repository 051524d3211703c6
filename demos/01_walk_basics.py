"""A first look at memory-limited elephant walks.

The walker repeats a uniformly chosen remembered step with probability p and
flips it with probability q = 1 - p.  What it remembers is the schedule's
business: everything, a growing first block, a trailing window, or a block
plus the most recent step.  This script walks a few paths under each schedule
and prints where they end up.
"""

import numpy as np

from erwlab import (
    EnsembleConfig,
    GrowthRule,
    MemorySchedule,
    WalkParams,
    run_ensemble,
    simulate_paths,
)
from erwlab.walk import _cut_points

params = WalkParams(p=0.7)
print(f"walk parameters: p={params.p}, q={params.q:.1f}, first step +1 w.p. {params.s}")
print()

# the one-step law is driven entirely by the counts of remembered +1 and -1
# steps: a uniform u below t1 gives +1, below t2 gives 0, and -1 otherwise
plus, minus, size = 3, 1, 4  # remembers +1,+1,+1,-1
t1, t2 = _cut_points(params.p, params.q, params.r, params.p + params.q, float(size),
                     plus, minus)
p_plus, p_zero, p_minus = t1, t2 - t1, 1.0 - t2
print(f"memory (+1,+1,+1,-1): next step +1 w.p. {p_plus:.3f}, -1 w.p. {p_minus:.3f}")
print(f"conditional mean = (p-q) * sum/size = {p_plus - p_minus:.3f}")
print()

schedules = {
    "full memory": MemorySchedule.full(),
    "first block ~ sqrt(n)": MemorySchedule.first_increasing(),
    "first block + last step": MemorySchedule.first_plus_recent(
        growth=GrowthRule(), recent=1),
    "last 10 steps": MemorySchedule.last_fixed(10),
}

n = 10_000
grid = [100, 1000, n]
print(f"five paths per schedule, positions at n = {grid}:")
for name, sched in schedules.items():
    finals = [[s for _, s, _ in t.checkpoints]
              for t in simulate_paths(params, sched, n, grid, 2024, 0, 5)]
    print(f"  {name:26s} {finals}")
print()

# persistence shows up in the spread: the full-memory walk at p = 0.7 drifts
# hard, the windowed walk stays diffusive
print("sample spread of S_n/n over 200 paths:")
for name, sched in schedules.items():
    cfg = EnsembleConfig(runs=200, n_grid=(2000,), master_seed=7, scaled_statistic="none")
    ends = run_ensemble(params, sched, cfg).final_S.astype(float)
    print(f"  {name:26s} mean {ends.mean() / 2000:+.3f}   sd {ends.std() / 2000:.3f}")
