"""Experiment pipelines: one per verification target, desk-scale by default.

Each experiment runs its measurement, compares against the relevant limit
target, and returns an ExperimentReport holding plot-ready rows plus
PASS/FAIL verdicts.  Monte Carlo parts simulate the per-horizon family
(block frozen at m_n for horizon n) because that is the family the limit
statements describe; the per-step growing walk is available for side-by-side
reporting but is never asserted against the limits.

EXPERIMENTS is the one place that says what each experiment needs: its
desk-scale horizon and run count, r > 0 or r = 0, the largest drift, whether
it needs alpha or checks the alpha = 0 limits, the schedule variants it can
run, and whether it enumerates or simulates.  ExperimentSpec checks every
spec against that record, so a spec from the command line and one built in
Python are refused alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, TextIO

import numpy as np

from .ensemble import (
    DEFAULT_MAX_STEPS,
    EnsembleConfig,
    _usable_cpus,
    check_budget,
    ks_statistic,
    moment_convergence_table,
    run_ensemble,
    scale_factor,
    schedule_alpha,
    total_variation,
    variance_standard_error,
)
from .limits import (
    LimitCdf,
    RegimeReport,
    limit_cdf,
    limit_moments,
    window_variance_conjectured_limit,
    window_variance_fixed_last_m,
    zeros_limit_mean,
)
from .oracle import (
    check_enumerable,
    enumerate_pmf,
    exact_mean_nonzeros,
    exact_moments_increasing,
    growing_mean_profile,
)
from .walk import MemorySchedule, WalkParams

__all__ = [
    "Verdict",
    "ExperimentReport",
    "ExperimentSpec",
    "Experiment",
    "EXPERIMENTS",
    "run_experiment_by_name",
]


@dataclass(frozen=True)
class Verdict:
    """One pass/fail line: measured value against a target with a tolerance."""

    label: str
    measured: float
    target: float
    tolerance: float
    mode: str  # "rel" (relative gap), "abs" (absolute gap), "le" (measured <= target)

    @property
    def passed(self) -> bool:
        if math.isnan(self.measured):
            return False
        if self.mode == "rel":
            return abs(self.measured - self.target) <= self.tolerance * abs(self.target)
        if self.mode == "abs":
            return abs(self.measured - self.target) <= self.tolerance
        return self.measured <= self.target

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.mode == "le":
            detail = f"measured={self.measured:.6g} <= bound={self.target:.6g}"
        else:
            kind = "rel" if self.mode == "rel" else "abs"
            detail = (f"measured={self.measured:.6g} target={self.target:.6g} "
                      f"tol={self.tolerance:.6g} ({kind})")
        return f"{status} {self.label}: {detail}"


@dataclass
class ExperimentReport:
    name: str
    info: dict
    rows: list[dict] = field(default_factory=list)
    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.name,
            "info": self.info,
            "rows": self.rows,
            "verdicts": [
                {
                    "label": v.label,
                    "measured": v.measured,
                    "target": v.target,
                    "tolerance": v.tolerance,
                    "mode": v.mode,
                    "passed": v.passed,
                }
                for v in self.verdicts
            ],
            "passed": self.passed,
        }

    def write_json(self, fh: TextIO) -> None:
        json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    def write_csv(self, fh: TextIO) -> None:
        fh.write(f"# experiment={self.name}")
        for k in sorted(self.info):
            fh.write(f" {k}={_fmt(self.info[k])}")
        fh.write("\n")
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        fh.write(",".join(cols) + "\n")
        for row in self.rows:
            fh.write(",".join(_fmt(row.get(c)) for c in cols) + "\n")
        fh.write("# verdicts\n")
        for v in self.verdicts:
            fh.write(f"# {v.line()}\n")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved experiment request, including report destination.

    Refused with ValueError (BudgetError over the step budget) unless it
    meets its experiment's record in EXPERIMENTS and asks for no more
    workers than the CPUs this process may run on.
    """

    experiment: str
    params: WalkParams
    schedule: MemorySchedule
    n: int
    runs: int
    seed: int
    workers: int = 1
    tolerance: Optional[float] = None
    alpha: float = 0.0
    max_steps: int = DEFAULT_MAX_STEPS
    fmt: str = "csv"
    out: Optional[str] = None

    def __post_init__(self):
        need = EXPERIMENTS.get(self.experiment)
        if need is None:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {sorted(EXPERIMENTS)}")
        name, params, variant = self.experiment, self.params, self.schedule.variant
        if self.n < 1:
            raise ValueError(f"need n >= 1, got n={self.n}")
        if self.runs < 1:
            raise ValueError(f"need runs >= 1, got runs={self.runs}")
        if self.workers < 1:
            raise ValueError(f"need threads >= 1, got threads={self.workers}")
        cpus = _usable_cpus()
        if self.workers > cpus:
            raise ValueError(f"need threads <= {cpus}, the CPUs this process may run on, "
                             f"got threads={self.workers}")
        if need.delayed is not None and params.delayed != need.delayed:
            wanted = "0 < r < 1" if need.delayed else "r = 0"
            raise ValueError(f"{name} experiment needs {wanted}, got r={params.r}")
        if params.drift > need.max_drift:
            raise ValueError(
                f"{name} needs a diffusive or critical regime, p - q <= {need.max_drift:g} "
                "(the limit law above the boundary has no closed form); run the moments "
                "experiment")
        if (need.needs_alpha or self.alpha) and not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"{name} needs 0 < alpha <= 1 (--alpha), got alpha={self.alpha}")
        if variant not in need.schedules:
            raise ValueError(f"{name} runs the schedules {', '.join(need.schedules)}, "
                             f"not {variant}")
        block_alpha = schedule_alpha(self.schedule)
        if need.alpha_zero and block_alpha > 0.0:
            raise ValueError(f"{name} checks the alpha = 0 limits, but this block has "
                             f"m_n/n -> {block_alpha:g} (--alpha, or --beta 1); run the "
                             "alpha-regime experiment")
        if name == "moments" and variant == "first-plus-recent" and params.delayed:
            raise ValueError("moments experiment on first-plus-recent needs r = 0 "
                             "(the delayed block moments are idealised)")
        if need.enumerates:
            check_enumerable(params, self.n)
        if need.simulates:
            check_budget(self.runs, self.n, self.max_steps)

    def config(self, statistic: str = "sqrt(m)/n",
               grid: Optional[tuple[int, ...]] = None) -> EnsembleConfig:
        return EnsembleConfig(
            runs=self.runs,
            n_grid=grid or (self.n,),
            master_seed=self.seed,
            scaled_statistic=statistic,
            workers=self.workers,
            max_steps=self.max_steps,
        )


def _info(spec: ExperimentSpec, **extra) -> dict:
    d = {
        "p": spec.params.p,
        "q": spec.params.q,
        "r": spec.params.r,
        "n": spec.n,
        "runs": spec.runs,
        "seed": spec.seed,
        "schedule": spec.schedule.variant,
    }
    d.update(extra)
    return d


# ---------------------------------------------------------------------------
# individual experiments
# ---------------------------------------------------------------------------


def oracle_compare(spec: ExperimentSpec) -> ExperimentReport:
    """Exhaustive enumeration against closed forms and against Monte Carlo.

    Checks that the enumerated law has unit mass, that its moments match the
    closed-form moments for the same horizon, and that an ensemble of the
    same walk lands within the configured total-variation budget.
    """
    tol_tv = spec.tolerance if spec.tolerance is not None else 0.005
    params, schedule, n = spec.params, spec.schedule, spec.n
    pmf = enumerate_pmf(params, schedule, n)
    es, es2, en = pmf.moments()
    rep = ExperimentReport("oracle-compare", _info(spec))
    rep.verdicts.append(Verdict("pmf-total-mass", abs(pmf.total_mass() - 1.0), 0.0,
                                1e-12, "abs"))
    if schedule.variant in ("full", "first-fixed") and not params.delayed:
        # horizon-frozen schedules have exact closed-form moments
        mom = exact_moments_increasing(params, schedule, n)
        delta = max(abs(es - mom.mean_Sn), abs(es2 - mom.second_Sn))
        rep.verdicts.append(Verdict("moment-delta-vs-closed-form", delta, 0.0, 1e-10, "abs"))
    elif schedule.variant == "first-increasing":
        # growing block: the mean recursions are exact for the per-step walk
        (_, mean_n, nz_n), = growing_mean_profile(params, schedule, [n])
        delta = max(abs(es - mean_n), abs(en - nz_n))
        rep.verdicts.append(Verdict("moment-delta-vs-growing-recursion", delta, 0.0,
                                    1e-10, "abs"))
    summary = run_ensemble(params, schedule, spec.config())
    tv = total_variation(pmf.s_marginal(), summary.final_S)
    rep.verdicts.append(Verdict("tv-empirical-vs-exact", tv, tol_tv, 0.0, "le"))
    values, counts = np.unique(summary.final_S, return_counts=True)
    counted = dict(zip(values.tolist(), counts.tolist()))
    for (s, nz), mass in zip(pmf.support, pmf.mass):
        emp = counted.get(s, 0) / summary.final_S.size
        rep.rows.append({"s": s, "nstar": nz, "mass": mass, "empirical_s": emp})
    return rep


def moments(spec: ExperimentSpec) -> ExperimentReport:
    """Closed-form scaled moments per horizon against the limit constants.

    Verdict on the final-horizon relative gap: variance for the diffusive and
    critical regimes, mean for the superdiffusive regime (where the limit's
    distribution is unknown and only moments are available).
    """
    params, schedule = spec.params, spec.schedule
    alpha = schedule_alpha(schedule)
    report = limit_moments(params, alpha)
    default = {"diffusive": 0.05, "critical": 0.10, "superdiffusive": 0.05}[report.regime]
    tol = spec.tolerance if spec.tolerance is not None else default
    grid = sorted({max(2, spec.n >> j) for j in range(6)})
    rows = moment_convergence_table(params, schedule, grid)
    rep = ExperimentReport("moments", _info(spec, regime=report.regime,
                                            normalization=report.normalization))
    rep.rows = rows
    last = rows[-1]
    if report.regime == "superdiffusive":
        rep.verdicts.append(Verdict(f"superdiffusive-scaled-mean[{report.normalization}]",
                                    last["scaled_mean"], report.limit_mean, tol, "rel"))
    else:
        rep.verdicts.append(Verdict(f"{report.regime}-scaled-variance[{report.normalization}]",
                                    last["scaled_var"], report.limit_var, tol, "rel"))
    return rep


def clt_check(spec: ExperimentSpec) -> ExperimentReport:
    """Distributional check of the normal limit in the diffusive/critical regimes.

    Simulates the horizon-frozen walk and measures the sup-distance between
    the scaled sample and the limit distribution.  At p = 1/2 the scaled
    statistic degenerates, so the check targets S_n/sqrt(n) against the unit
    normal instead.
    """
    tol = spec.tolerance if spec.tolerance is not None else 0.05
    params = spec.params
    report = limit_moments(params, 0.0)
    frozen = spec.schedule.frozen_at_horizon(spec.n)
    degenerate_point = not params.delayed and params.p == 0.5
    if degenerate_point:
        statistic = "1/sqrt(n)"
        target: Callable[[float], float] = LimitCdf(weight=1.0, sigma2=1.0, atom=0.0)
        target_label = "normal(0,1)[S_n/sqrt(n)]"
    else:
        statistic = report.normalization
        target = limit_cdf(report)
        target_label = f"normal(0,{report.component_var:.6g})"
        if report.atom:
            target_label = f"mixture({1-report.atom:.3g})*{target_label}+{report.atom:.3g}*delta0"
    summary = run_ensemble(params, frozen, spec.config(statistic=statistic))
    ks = ks_statistic(summary.ecdf, target)
    summary.ks_final = ks
    st = summary.final_stats()
    rep = ExperimentReport("clt-check", _info(spec, regime=report.regime, m=st.m,
                                              statistic=statistic, target=target_label))
    rep.rows.append({
        "n": st.n, "m": st.m, "scaled_mean": st.scaled_mean, "scaled_var": st.scaled_var,
        "skew": st.scaled_skew, "ks": ks, "limit_var": 1.0 if degenerate_point else report.limit_var,
    })
    rep.verdicts.append(Verdict(f"ks-vs-{target_label}", ks, tol, 0.0, "le"))
    return rep


def delayed(spec: ExperimentSpec) -> ExperimentReport:
    """Delayed-walk mixture limit: atom of stuck paths plus a normal component.

    A delayed walk whose first step is zero can never move, so the fraction
    of degenerate paths estimates the atom r; the scaled sample is compared
    against the mixture distribution as a whole.
    """
    tol_ks = spec.tolerance if spec.tolerance is not None else 0.06
    params = spec.params
    report = limit_moments(params, 0.0)
    if params.p == params.q:
        # zero drift: S_n/sqrt(n) has the mixture limit with a unit-variance
        # normal component, whatever the memory schedule
        report = RegimeReport(report.regime, 0.0, "1/sqrt(n)", 0.0,
                              0.0, 1.0 - params.r, params.r, 1.0, True, report.note)
    frozen = spec.schedule.frozen_at_horizon(spec.n)
    summary = run_ensemble(params, frozen, spec.config(statistic=report.normalization))
    st = summary.final_stats()
    atom_tol = 3.0 * math.sqrt(params.r * (1.0 - params.r) / spec.runs)
    rep = ExperimentReport("delayed", _info(spec, regime=report.regime, m=st.m,
                                            normalization=report.normalization))
    rep.rows.append({
        "n": st.n, "m": st.m, "scaled_mean": st.scaled_mean, "scaled_var": st.scaled_var,
        "degenerate_fraction": st.degenerate_fraction, "atom_target": params.r,
        "limit_var_total": report.limit_var, "component_var": report.component_var,
    })
    rep.verdicts.append(Verdict("degenerate-fraction-vs-atom", st.degenerate_fraction,
                                params.r, max(0.015, atom_tol), "abs"))
    if report.cdf_available:
        ks = ks_statistic(summary.ecdf, limit_cdf(report))
        summary.ks_final = ks
        rep.rows[-1]["ks"] = ks
        rep.verdicts.append(Verdict("ks-vs-delayed-mixture", ks, tol_ks, 0.0, "le"))
    return rep


def zeros(spec: ExperimentSpec) -> ExperimentReport:
    """Scaled nonzero-step count: exact mean formula plus Monte Carlo.

    E(N*_n m^r / n) -> (1 - r)/Gamma(1 - r).  The Monte Carlo second moment
    is reported as data; no verdict checks it.
    """
    params = spec.params
    tol_exact = spec.tolerance if spec.tolerance is not None else 0.05
    tol_mc = max(0.10, tol_exact)
    target = zeros_limit_mean(params.r)
    n_exact = max(spec.n, 10**6)
    m_exact = spec.schedule.block_size(n_exact)
    exact_val = exact_mean_nonzeros(params, m_exact, n_exact) * m_exact**params.r / n_exact
    frozen = spec.schedule.frozen_at_horizon(spec.n)
    summary = run_ensemble(params, frozen, spec.config(statistic="m^r/n"))
    st = summary.final_stats()
    rep = ExperimentReport("zeros", _info(spec, m_exact=m_exact, n_exact=n_exact,
                                          m_mc=st.m, target=target))
    rep.rows.append({
        "n": n_exact, "m": m_exact, "kind": "exact", "nstar_scaled_mean": exact_val,
        "limit": target,
    })
    rep.rows.append({
        "n": st.n, "m": st.m, "kind": "mc", "nstar_scaled_mean": st.nstar_scaled_mean,
        "limit": target, "scaled_second_moment": st.scaled_var + st.scaled_mean**2,
        "degenerate_fraction": st.degenerate_fraction,
    })
    rep.verdicts.append(Verdict("zeros-scaled-mean-exact[(1-r)/Gamma(1-r)]",
                                exact_val, target, tol_exact, "rel"))
    rep.verdicts.append(Verdict("zeros-scaled-mean-mc", st.nstar_scaled_mean,
                                target, tol_mc, "rel"))
    return rep


def alpha_regime(spec: ExperimentSpec) -> ExperimentReport:
    """Moment check when m/n -> alpha in (0, 1]; distribution is probed only.

    The limit law is unknown in this regime, so the verdict covers the
    variance alone and the report carries empirical deciles of the scaled
    statistic as histogram-ready data.
    """
    params, alpha = spec.params, spec.alpha
    report = limit_moments(params, alpha)
    tol = spec.tolerance if spec.tolerance is not None else (0.05 if params.p == 0.5 else 0.10)
    frozen = spec.schedule.frozen_at_horizon(spec.n)
    m = frozen.m
    summary = run_ensemble(params, frozen, spec.config(statistic=report.normalization))
    st = summary.final_stats()
    rep = ExperimentReport("alpha-regime", _info(spec, alpha=alpha, m=m,
                                                 regime=report.regime,
                                                 normalization=report.normalization))
    deciles = np.percentile(summary.ecdf, np.arange(0, 101, 10))
    rep.rows.append({
        "n": st.n, "m": m, "scaled_mean": st.scaled_mean, "scaled_var": st.scaled_var,
        "skew": st.scaled_skew, "limit_var": report.limit_var,
        **{f"q{k}": float(v) for k, v in zip(range(0, 101, 10), deciles)},
    })
    label = f"alpha-variance[{report.normalization}, alpha={alpha:g}]"
    rep.verdicts.append(Verdict(label, st.scaled_var, report.limit_var, tol, "rel"))
    if params.p == 0.5:
        # equivalent statement on the raw scale: Var(S_n/sqrt(n)) -> 1
        rep.rows[-1]["var_root_n"] = st.scaled_var / alpha if alpha else float("nan")
    return rep


def recent_augmented(spec: ExperimentSpec) -> ExperimentReport:
    """Block memory augmented with the most recent steps: same limits expected.

    Runs the horizon-frozen block walk with and without the recent-step
    augment under the same seed.  With r = 0 the augmented walk has exact
    finite-n moments, and the verdict holds its Monte Carlo scaled variance
    within `tolerance` (default 3) Monte Carlo standard errors of that exact
    value: the limit constrains no finite horizon, the exact law of the
    simulated walk does.  With r > 0 no exact value exists (the delayed block
    moments are idealised), so the verdict stays against the limit with a
    relative tolerance (default 0.15).  The row carries the limit, the exact
    value, the standard error and the augmented-vs-plain difference (no bound
    is claimed for that difference).
    """
    params = spec.params
    k = spec.schedule.recent if spec.schedule.recent else 1
    m = spec.schedule.block_size(spec.n)
    aug = MemorySchedule.first_plus_recent(m=m, recent=k)
    plain = MemorySchedule.first_fixed(m)
    report = limit_moments(params, 0.0)
    cfg = spec.config(statistic=report.normalization)
    s_aug = run_ensemble(params, aug, cfg)
    s_plain = run_ensemble(params, plain, cfg)
    va, vp = s_aug.final_stats().scaled_var, s_plain.final_stats().scaled_var
    se = variance_standard_error(s_aug.ecdf)
    rep = ExperimentReport("recent-augmented", _info(spec, m=m, recent=k,
                                                     regime=report.regime))
    row = {"n": spec.n, "m": m, "recent": k, "scaled_var_augmented": va,
           "scaled_var_plain": vp,
           "relative_difference": abs(va - vp) / vp if vp else float("nan"),
           "limit_var": report.limit_var, "mc_standard_error": se}
    label = f"augmented-scaled-variance[{report.normalization}]"
    if params.delayed:
        row["exact_scaled_var"] = "none: delayed block moments are idealised"
        tol = spec.tolerance if spec.tolerance is not None else 0.15
        rep.verdicts.append(Verdict(label, va, report.limit_var, tol, "rel"))
    else:
        fac = scale_factor(report.normalization, spec.n, m, params)
        exact = exact_moments_increasing(params, aug, spec.n).var_Sn * fac * fac
        row["exact_scaled_var"] = exact
        n_se = spec.tolerance if spec.tolerance is not None else 3.0
        rep.verdicts.append(Verdict(f"{label}-vs-exact-finite-n[{n_se:g} s.e.]",
                                    va, exact, n_se * se, "abs"))
    rep.rows.append(row)
    return rep


def conjecture_probe(spec: ExperimentSpec) -> ExperimentReport:
    """Trailing-window memory: finite-window variance law and its large-m limit.

    For a fixed window of m steps, Var(S_n/sqrt(n)) approaches
    (m - 1 + 2p) / (2(1-p)(2(1-p)m + 2p - 1)); that is asserted.  For a
    growing window the conjectured limit 1/(4(1-p)^2) is only probed: the
    report carries the measured trend, no verdict.
    """
    params = spec.params
    tol = spec.tolerance if spec.tolerance is not None else 0.10
    sched = spec.schedule
    rep = ExperimentReport("conjecture-probe", _info(spec, window=sched.variant))
    if sched.variant == "last-fixed":
        target = window_variance_fixed_last_m(params.p, sched.m)
        summary = run_ensemble(params, sched, spec.config(statistic="1/sqrt(n)"))
        st = summary.final_stats()
        rep.rows.append({"n": st.n, "window": sched.m, "var_root_n": st.scaled_var,
                         "finite_window_target": target,
                         "conjectured_large_window_limit":
                             window_variance_conjectured_limit(params.p)})
        rep.verdicts.append(Verdict(f"window-variance[m={sched.m}]",
                                    st.scaled_var, target, tol, "rel"))
    else:
        # growing window: emit the trend only
        grid = sorted({max(4, spec.n >> j) for j in range(4)})
        summary = run_ensemble(params, sched,
                               spec.config(statistic="1/sqrt(n)", grid=tuple(grid)))
        for st in summary.stats:
            rep.rows.append({"n": st.n, "window": st.m, "var_root_n": st.scaled_var,
                             "conjectured_limit":
                                 window_variance_conjectured_limit(params.p)})
    return rep


@dataclass(frozen=True)
class Experiment:
    """One experiment: its pipeline, desk scale and what a spec must meet.

    delayed: True needs 0 < r < 1, False needs r = 0, None takes either.
    max_drift: the largest p - q the limit it checks covers.
    alpha_zero: the limits it checks are those of m_n/n -> 0, so a block
    growing as m_n = alpha n with alpha > 0 is refused.
    schedules: the variants whose walk its verdict is about; the first is
    the default.  enumerates/simulates: the spec must fit the enumeration
    cap / the ensemble step budget.
    """

    run: Callable[[ExperimentSpec], ExperimentReport]
    n: int
    runs: int
    schedules: tuple[str, ...]
    delayed: Optional[bool] = None
    max_drift: float = 1.0
    needs_alpha: bool = False
    alpha_zero: bool = False
    enumerates: bool = False
    simulates: bool = True


# the horizon-frozen first block, whose per-horizon walk the limits describe
_BLOCKS = ("first-increasing", "first-fixed", "first-plus-recent")

EXPERIMENTS: dict[str, Experiment] = {
    "oracle-compare": Experiment(oracle_compare, 10, 1_000_000,
                                 _BLOCKS + ("full", "last-fixed", "last-increasing"),
                                 enumerates=True),
    "moments": Experiment(moments, 1_000_000, 10_000, _BLOCKS + ("full",), simulates=False),
    "clt-check": Experiment(clt_check, 10_000, 20_000, _BLOCKS, max_drift=0.5,
                            alpha_zero=True),
    "delayed": Experiment(delayed, 10_000, 10_000, _BLOCKS, delayed=True, alpha_zero=True),
    "zeros": Experiment(zeros, 10_000, 10_000, _BLOCKS, delayed=True, alpha_zero=True),
    "alpha-regime": Experiment(alpha_regime, 100_000, 10_000, ("first-increasing",),
                               delayed=False, needs_alpha=True),
    "recent-augmented": Experiment(recent_augmented, 10_000, 20_000, _BLOCKS,
                                   alpha_zero=True),
    "conjecture-probe": Experiment(conjecture_probe, 100_000, 10_000,
                                   ("last-fixed", "last-increasing"), delayed=False),
}


def run_experiment_by_name(spec: ExperimentSpec) -> ExperimentReport:
    return EXPERIMENTS[spec.experiment].run(spec)
