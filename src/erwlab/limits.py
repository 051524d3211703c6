"""Regime classification, normalizing sequences, and limit-law parameters.

For block memory m_n with m_n -> infinity and m_n/n -> alpha, the scaled
position S_n * scale(n) has a three-regime limit structure in the drift
a = p - q (a = 2p - 1 for the two-valued walk):

    diffusive      a < 1/2   scale sqrt(m)/n          normal limit
    critical       a = 1/2   scale sqrt(m/log m)/n    normal limit
    superdiffusive a > 1/2   scale m^(1-a)/n          a * L, law of L unknown

Delayed walks (r > 0) put an extra atom of mass r at zero (walks whose first
step is zero never move), so their diffusive/critical limits are mixtures.
The nonzero-step count has its own scaling: N*_n * m^r / n has limit mean
(1 - r) / Gamma(1 - r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .walk import WalkParams

__all__ = [
    "RegimeReport",
    "LimitCdf",
    "classify_regime",
    "limit_moments",
    "limit_cdf",
    "zeros_limit_mean",
    "window_variance_fixed_last_m",
    "window_variance_conjectured_limit",
]

DIFFUSIVE = "diffusive"
CRITICAL = "critical"
SUPERDIFFUSIVE = "superdiffusive"


@dataclass(frozen=True)
class RegimeReport:
    """Normalization and limit parameters for one parameter set.

    limit_mean / limit_var describe the scaled statistic's limit; for the
    superdiffusive regime they are the first two moments of a * L (the limit
    law itself has no known closed form, so cdf_available is False there).
    atom is the point mass at zero (= r for delayed walks); component_var is
    the variance parameter of the normal component inside a delayed mixture.
    """

    regime: str
    drift: float
    normalization: str
    alpha: float = 0.0
    limit_mean: float = float("nan")
    limit_var: float = float("nan")
    atom: float = 0.0
    component_var: float = float("nan")
    cdf_available: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "drift": self.drift,
            "normalization": self.normalization,
            "alpha": self.alpha,
            "limit_mean": self.limit_mean,
            "limit_var": self.limit_var,
            "atom": self.atom,
            "component_var": self.component_var,
            "cdf_available": self.cdf_available,
            "note": self.note,
        }


def _normalization_tag(params: WalkParams, regime: str) -> str:
    if regime == DIFFUSIVE:
        return "sqrt(m)/n"
    if regime == CRITICAL:
        return "sqrt(m/log m)/n"
    if params.delayed:
        return "m^(1+q-p)/n"
    return "m^(2(1-p))/n"


_BOUNDARY_SNAP = 1e-12


def classify_regime(params: WalkParams) -> RegimeReport:
    """Regime and normalization only; thresholds at drift 1/2.

    For the two-valued walk the drift is 2p - 1, so the boundary sits at
    p = 3/4; delayed walks use p - q against the same 1/2.  Drifts within
    1e-12 of 1/2 count as critical, so decimal inputs like p=0.6, q=0.1 land
    on the boundary they intend.
    """
    a = params.drift
    if abs(a - 0.5) <= _BOUNDARY_SNAP:
        regime = CRITICAL
    elif a < 0.5:
        regime = DIFFUSIVE
    else:
        regime = SUPERDIFFUSIVE
    note = ""
    if not params.delayed and params.p == 0.5:
        note = ("degenerate diffusive point: S_n sqrt(m)/n -> 0 in probability "
                "when m/n -> 0; check S_n/sqrt(n) against the unit normal instead")
    if params.delayed and params.p == params.q:
        note = ("zero drift: S_n/sqrt(n) has the mixture limit with weights "
                "(p+q, r) and unit component variance")
    return RegimeReport(regime=regime, drift=a,
                        normalization=_normalization_tag(params, regime), note=note)


def _superdiffusive_L_moments(params: WalkParams) -> tuple[float, float]:
    """(E L, Var L) for the almost-sure limit L of S_m / m^drift, drift > 1/2.

    For the two-valued walk E L = (2s - 1) / Gamma(2p) follows the first step,
    while E L^2 = 1 / ((4p - 3) Gamma(2a)) does not depend on it.
    """
    a = params.drift
    if params.delayed:
        mean = a / math.gamma(1.0 + a)
        var = ((params.p + params.q) ** 2 / ((2.0 * a - 1.0) * math.gamma(2.0 * a))
               - a * a / math.gamma(1.0 + a) ** 2)
    else:
        p = params.p
        first = a if params.s == p else 2.0 * params.s - 1.0  # E X_1
        mean = first / math.gamma(2.0 * p)
        var = (1.0 / ((4.0 * p - 3.0) * math.gamma(2.0 * a))
               - first * first / math.gamma(2.0 * p) ** 2)
    return mean, var


def limit_moments(params: WalkParams, alpha: float = 0.0) -> RegimeReport:
    """Limit mean and variance of the scaled statistic; alpha = lim m/n.

    alpha = 0 is the main regime (m/n -> 0).  For alpha in (0, 1] only the
    two-valued walk has moment formulas; with f = a(1-alpha) + alpha:

        diffusive       var = f^2 / (3 - 4p) + alpha (1 - alpha)
        critical        var = (1 - alpha)^2 / 4 + alpha
        superdiffusive  mean = f E(L),  var = f^2 Var(L)

    all of which collapse to the alpha = 0 constants.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if alpha > 0.0 and params.delayed:
        raise ValueError("no moment formulas for delayed walks with m/n -> alpha > 0")
    base = classify_regime(params)
    a = base.drift
    f = a * (1.0 - alpha) + alpha
    if base.regime == DIFFUSIVE:
        if params.delayed:
            w = params.p + params.q
            comp = a * a * w / (1.0 - 2.0 * a)
            var = w * comp  # mixture total: (p^2 - q^2)^2 / (1 - 2(p-q))
            return RegimeReport(base.regime, a, base.normalization, alpha,
                                0.0, var, params.r, comp, True, base.note)
        var = f * f / (3.0 - 4.0 * params.p) + alpha * (1.0 - alpha)
        return RegimeReport(base.regime, a, base.normalization, alpha,
                            0.0, var, 0.0, var, True, base.note)
    if base.regime == CRITICAL:
        if params.delayed:
            w = params.p + params.q
            comp = 0.25 * w
            var = w * comp  # = (p+q)^2 / 4
            return RegimeReport(base.regime, a, base.normalization, alpha,
                                0.0, var, params.r, comp, True, base.note)
        var = 0.25 * (1.0 - alpha) ** 2 + alpha
        return RegimeReport(base.regime, a, base.normalization, alpha,
                            0.0, var, 0.0, var, True, base.note)
    mean_L, var_L = _superdiffusive_L_moments(params)
    return RegimeReport(base.regime, a, base.normalization, alpha,
                        f * mean_L, f * f * var_L, params.r if params.delayed else 0.0,
                        float("nan"), False, base.note)


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class LimitCdf:
    """Limit distribution function, possibly a normal mixture with an atom at 0."""

    weight: float          # mass of the normal component
    sigma2: float          # its variance (0 degenerates to a point mass at 0)
    atom: float            # extra point mass at 0

    def __call__(self, x: float) -> float:
        if self.sigma2 > 0.0:
            val = self.weight * _phi(x / math.sqrt(self.sigma2))
        else:
            val = self.weight if x >= 0.0 else 0.0
        if x >= 0.0:
            val += self.atom
        return val

    def atoms(self) -> tuple[tuple[float, float], ...]:
        a = self.atom + (self.weight if self.sigma2 == 0.0 else 0.0)
        return ((0.0, a),) if a > 0.0 else ()


def limit_cdf(report: RegimeReport) -> LimitCdf:
    """Distribution function of the limit law described by a report.

    Only diffusive and critical regimes have one; the superdiffusive limit
    a * L is verified through moments alone.
    """
    if not report.cdf_available:
        raise ValueError(
            f"no closed-form limit distribution for the {report.regime} regime; "
            "only the first two moments are checkable"
        )
    return LimitCdf(weight=1.0 - report.atom, sigma2=report.component_var,
                    atom=report.atom)


def zeros_limit_mean(r: float) -> float:
    """Limit of E(N*_n m^r / n): (1 - r) / Gamma(1 - r), for 0 < r < 1."""
    if not 0.0 < r < 1.0:
        raise ValueError(f"need 0 < r < 1, got {r}")
    return (1.0 - r) / math.gamma(1.0 - r)


def window_variance_fixed_last_m(p: float, m: int) -> float:
    """Asymptotic variance of S_n/sqrt(n) when the memory is the last m steps.

    sigma^2 = (m - 1 + 2p) / (2(1-p) (2(1-p) m + 2p - 1)); trailing-window
    memory mixes, so there is no phase transition in p.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got {p}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    return (m - 1.0 + 2.0 * p) / (2.0 * (1.0 - p) * (2.0 * (1.0 - p) * m + 2.0 * p - 1.0))


def window_variance_conjectured_limit(p: float) -> float:
    """Conjectured m -> infinity limit of the trailing-window variance: 1/(4(1-p)^2)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got {p}")
    return 1.0 / (4.0 * (1.0 - p) ** 2)
