"""Elephant random walks with growing memory: simulation plus verification.

The package simulates walks whose next step copies, flips, or ignores a
uniformly chosen remembered step, computes exact small-horizon laws and
closed-form moments, classifies diffusive/critical/superdiffusive regimes,
and checks large ensembles against the limit targets.
"""

from .walk import (
    GrowthRule,
    MemorySchedule,
    Trajectory,
    WalkParams,
    make_run_stream,
)
from .oracle import (
    EnumerationCapError,
    ExactPmf,
    MomentReport,
    enumerate_pmf,
    exact_mean_nonzeros,
    exact_moments_full,
    exact_moments_increasing,
    growing_mean_profile,
    log_gamma_ratio,
)
from .limits import (
    LimitCdf,
    RegimeReport,
    classify_regime,
    limit_cdf,
    limit_moments,
    window_variance_conjectured_limit,
    window_variance_fixed_last_m,
    zeros_limit_mean,
)
from .ensemble import (
    BudgetError,
    CheckpointStats,
    EnsembleConfig,
    EnsembleSummary,
    kolmogorov_quantile,
    ks_statistic,
    moment_convergence_table,
    run_ensemble,
    scale_factor,
    schedule_alpha,
    simulate_paths,
    summary_to_csv,
    total_variation,
    variance_standard_error,
)

__version__ = "0.1.0"
