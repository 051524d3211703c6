"""Exact small-horizon laws by exhaustive enumeration.

For a dozen steps the walk has few enough paths to enumerate outright, which
gives exact distributions to hold everything else against: closed-form
moments, the symmetric-walk binomial reduction, and Monte Carlo ensembles.
"""

import math

from erwlab import (
    EnsembleConfig,
    MemorySchedule,
    WalkParams,
    enumerate_pmf,
    exact_moments_full,
    run_ensemble,
    total_variation,
)

params = WalkParams(p=0.7)
full = MemorySchedule.full()

pmf = enumerate_pmf(params, full, 6)
print("exact law of S_6, full memory, p = 0.7:")
for s, mass in sorted(pmf.s_marginal().items()):
    bar = "#" * round(60 * mass)
    print(f"  S={s:+d}  {mass:.6f}  {bar}")
es, es2, _ = pmf.moments()
mean, second = exact_moments_full(0.7, 6)
print(f"enumerated mean {es:.12f} vs closed form {mean:.12f}")
print(f"enumerated 2nd moment {es2:.12f} vs recursion {second:.12f}")
print()

# p = 1/2 wipes out the memory: every schedule gives the fair-coin walk
print("p = 1/2 reduces to coin tossing under any schedule (n = 10):")
sym = WalkParams(p=0.5)
for sched in (full, MemorySchedule.first_increasing(), MemorySchedule.last_fixed(3),
              MemorySchedule.last_increasing()):
    marg = enumerate_pmf(sym, sched, 10).s_marginal()
    worst = max(abs(marg[2 * k - 10] - math.comb(10, k) / 1024) for k in range(11))
    print(f"  {sched.variant:18s} max |pmf - binomial| = {worst:.2e}")
print()

# Monte Carlo against the exact law
sched = MemorySchedule.first_increasing()
pmf = enumerate_pmf(params, sched, 12)
cfg = EnsembleConfig(runs=200_000, n_grid=(12,), master_seed=11, workers=2,
                     scaled_statistic="none")
summary = run_ensemble(params, sched, cfg)
tv = total_variation(pmf.s_marginal(), summary.final_S)
print(f"growing-memory walk at n = 12: total variation between 2e5 simulated")
print(f"paths and the exact law = {tv:.4f}")
