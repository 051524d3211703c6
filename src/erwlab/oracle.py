"""Exact finite-n computations: path enumeration and closed-form moments.

Two kinds of ground truth live here.  Exhaustive enumeration gives the exact
joint law of (S_n, N*_n) for small n under any schedule.  Closed forms give
moments at any n for the per-horizon walk that recalls {1..m} throughout
(full memory while k <= m, the block frozen afterwards); that is the walk the
limit statements are about, and it coincides with the first-fixed schedule.

Which closed-form moments are exact for the simulated walk:
  * r = 0: both moments, for the frozen block and for the block plus its
    most recent steps (first-plus-recent), to rounding against enumeration.
  * r > 0: the means (E S_n and E N*_n) only.  The delayed second moments are
    idealised: they pin step activity at its starting level, while the
    simulated walk turns a remembered zero into a zero.  For first_fixed(3),
    n = 8, (p, q, r) = (.5, .2, .3) they give E S_n^2 = 9.1826 against the
    enumerated 7.39515.  The augmented delayed walk is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .walk import MemorySchedule, WalkParams

__all__ = [
    "ExactPmf",
    "MomentReport",
    "EnumerationCapError",
    "check_enumerable",
    "enumerate_pmf",
    "exact_moments_full",
    "exact_moments_increasing",
    "exact_mean_nonzeros",
    "growing_mean_profile",
    "log_gamma_ratio",
]

ENUM_CAP_BINARY = 16
ENUM_CAP_TERNARY = 10

# Stirling tail ln Gamma(x) ~ (x-1/2)ln x - x + ln(2 pi)/2 + sum B_2k/(2k(2k-1) x^(2k-1))
_STIRLING_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
)
_STIRLING_MIN = 20.0


class EnumerationCapError(ValueError):
    """Horizon too large for exhaustive enumeration."""


def _stirling_tail(x: float) -> float:
    inv2 = 1.0 / (x * x)
    term = 1.0 / x
    total = 0.0
    for c in _STIRLING_COEF:
        total += c * term
        term *= inv2
    return total


def log_gamma_ratio(a: float, b: float) -> float:
    """ln(Gamma(a) / Gamma(b)), stable for arguments up to ~1e9.

    A direct lgamma difference loses ~|lgamma| * 1e-16 absolute, which is
    catastrophic for large nearly-equal arguments.  Instead both arguments
    are shifted above a threshold by the recurrence
    ln Gamma(x) = ln Gamma(x + k) - sum ln(x + j), and the shifted difference
    is taken term by term in the Stirling expansion:

        delta * ln(b) + (a - 1/2) * log1p(delta / b) - delta + tail(a) - tail(b)

    with delta = a - b, which involves no large cancelling quantities.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"log_gamma_ratio needs positive arguments, got ({a}, {b})")
    if a == b:
        return 0.0
    logs: list[float] = []
    while a < _STIRLING_MIN:
        logs.append(-math.log(a))
        a += 1.0
    while b < _STIRLING_MIN:
        logs.append(math.log(b))
        b += 1.0
    shift_logs = math.fsum(logs)
    delta = a - b
    core = delta * math.log(b) + (a - 0.5) * math.log1p(delta / b) - delta
    return core + _stirling_tail(a) - _stirling_tail(b) + shift_logs


# ---------------------------------------------------------------------------
# closed-form moments
# ---------------------------------------------------------------------------


def exact_moments_full(p: float, m: int, s: Optional[float] = None) -> tuple[float, float]:
    """(E S_m, E S_m^2) for the full-memory two-valued walk, any m.

    The first step is +1 with probability s (p when omitted), and
    E S_m = (2s - 1) Gamma(m + 2p - 1) / (Gamma(m) Gamma(2p)), evaluated in
    log space; the second moment follows the one-step recursion
    E S_{k+1}^2 = E S_k^2 (1 + 2(2p - 1)/k) + 1 from E S_1^2 = 1, whatever s.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"need 0 < p < 1, got {p}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if s is not None and not 0.0 <= s <= 1.0:
        raise ValueError(f"need 0 <= s <= 1, got {s}")
    a = 2.0 * p - 1.0
    first = a if s is None else 2.0 * s - 1.0  # E X_1
    if a == 0.0:
        mean = first
    else:
        mean = first * math.exp(log_gamma_ratio(m + a, float(m)) - math.lgamma(2.0 * p))
    second = 1.0
    for k in range(1, m):
        second = second * (1.0 + 2.0 * a / k) + 1.0
    return mean, second


def _delayed_moments_base(params: WalkParams, m: int) -> tuple[float, float]:
    """(E S_m, idealised E S_m^2) for the delayed full-memory walk.

    The mean is exact: E S_{k+1} = E S_k (1 + (p - q)/k) telescopes to
    (p - q) Gamma(m + p - q) / (Gamma(m) Gamma(1 + p - q)).

    The second moment keeps the walk's step activity pinned at its initial
    level, forcing (p + q)^2 per step instead of the slowly decaying
    (p + q) E N*_k / k, so that the r -> 0 limit recovers the two-valued
    recursion and the variance matches the stated limit constants.  The
    simulator feeds zeros back through the memory, so at moderate m its
    second moments sit below these values; the gap closes only at the rate
    the limit statements themselves assume away.
    """
    a = params.p - params.q
    w = params.p + params.q
    if a == 0.0:
        mean = 0.0
    else:
        mean = a * math.exp(log_gamma_ratio(m + a, float(m)) - math.lgamma(1.0 + a))
    second = w
    for k in range(1, m):
        second = second * (1.0 + 2.0 * a / k) + w * w
    return mean, second


@dataclass(frozen=True)
class MomentReport:
    """Exact moments of the per-horizon walk with block {1..m} at time n."""

    n: int
    m: int
    mean_Sn: float
    second_Sn: float
    mean_Nstar: float

    @property
    def var_Sn(self) -> float:
        return self.second_Sn - self.mean_Sn**2


def exact_moments_increasing(
    params: WalkParams, schedule: MemorySchedule, n: int
) -> MomentReport:
    """Moments of S_n for the horizon-n walk: full memory to m = m_n, then frozen.

    Conditioning on the first m steps gives

        E S_n   = E S_m * (1 + (n - m) a / m)
        E S_n^2 = E S_m^2 * (m^2 + 2 a m (n-m) + a^2 (n-m)(n-m-1)) / m^2
                  + (n - m) * (p + q)

    with a = p - q (= 2p - 1 when r = 0).  The block moments at time m come
    from exact_moments_full, with E X_1 = 2s - 1, or its delayed analogue.
    For first-plus-recent (r = 0 only) the frozen phase follows the joint
    recursion in _augmented_moments instead.

    Exact for r = 0.  For r > 0 the mean is exact but the second moment is
    idealised (see _delayed_moments_base and the module docstring), so
    first-plus-recent with r > 0 raises ValueError.
    """
    if schedule.is_last_window:
        raise ValueError("two-epoch moments require a first-block or full schedule")
    if n < 1:
        raise ValueError("need n >= 1")
    m = schedule.block_size(n)
    a = params.drift
    w = params.p + params.q
    if schedule.recent:
        if params.delayed:
            raise ValueError(
                "exact first-plus-recent moments need r = 0: the delayed block "
                "moments are idealised, not exact for the simulated walk")
        mean_m, second_m = exact_moments_full(params.p, m, params.s)
        mean_n, second_n = _augmented_moments(a, m, schedule.recent, n, mean_m, second_m)
        return MomentReport(n=n, m=m, mean_Sn=mean_n, second_Sn=second_n,
                            mean_Nstar=exact_mean_nonzeros(params, m, n))
    if params.delayed:
        mean_m, second_m = _delayed_moments_base(params, m)
    else:
        mean_m, second_m = exact_moments_full(params.p, m, params.s)
    d = n - m
    mean_n = mean_m * (1.0 + d * a / m)
    amp = m * m + 2.0 * a * m * d + a * a * d * (d - 1.0)
    second_n = second_m * amp / (m * m) + d * w
    return MomentReport(n=n, m=m, mean_Sn=mean_n, second_Sn=second_n,
                        mean_Nstar=exact_mean_nonzeros(params, m, n))


def _augmented_moments(
    a: float, m: int, recent: int, n: int, mean_m: float, second_m: float
) -> tuple[float, float]:
    """(E S_n, E S_n^2) for the two-valued walk recalling {1..m} plus its last steps.

    From time m on the memory is the frozen block sum B = S_m plus the sum of
    the steps with index in (max(m, k - recent), k], so with the state
    V_k = (B, S_k, X_k, .., X_{k-recent+1}) (steps up to m held as zeros) and
    L_k = m + min(recent, k - m):

        E(X_{k+1} | F_k) = c u.V_k,  c = a / L_k,  u = indicator of B and the steps
        V_{k+1} = P V_k + d X_{k+1},  d = indicator of S and the newest step
        E V_{k+1}     = A E V_k,  A = P + c d u^T
        E V_{k+1} V_{k+1}^T = A G A^T + d d^T (1 - c^2 u^T G u)

    using X_{k+1}^2 = 1.  Both maps are linear, and constant once the recent
    window is full, so that stretch is one matrix power: O(recent^6 log n).
    """
    dim = recent + 2
    shift = np.zeros((dim, dim))
    shift[0, 0] = shift[1, 1] = 1.0
    for i in range(3, dim):
        shift[i, i - 1] = 1.0
    d = np.zeros(dim)
    d[1] = d[2] = 1.0
    u = np.ones(dim)
    u[1] = 0.0
    dd = np.outer(d, d).ravel()
    uu = np.outer(u, u).ravel()
    mu = np.zeros(dim)
    mu[:2] = mean_m
    z = np.zeros(dim * dim + 1)  # vec(G), then the constant 1
    z[[0, 1, dim, dim + 1]] = second_m
    z[-1] = 1.0
    k = m
    while k < n:
        steps = 1 if k - m < recent else n - k
        c = a / (m + min(recent, k - m))
        A = shift + c * np.outer(d, u)
        T = np.zeros((dim * dim + 1,) * 2)
        T[:-1, :-1] = np.kron(A, A) - c * c * np.outer(dd, uu)
        T[:-1, -1] = dd
        T[-1, -1] = 1.0
        mu = np.linalg.matrix_power(A, steps) @ mu
        z = np.linalg.matrix_power(T, steps) @ z
        k += steps
    return float(mu[1]), float(z[dim + 1])


def exact_mean_nonzeros(params: WalkParams, m: int, n: int) -> float:
    """E N*_n for the horizon walk: Gamma(m+1-r)/(Gamma(1-r)Gamma(m+1)) (n(1-r) + m r).

    Exact for the delayed walk (the nonzero-count recursion closes on itself).
    With r = 0 every step is nonzero and the mean is n.
    """
    if m < 1 or n < m:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    r = params.r
    if r == 0.0:
        return float(n)
    lg = log_gamma_ratio(m + 1.0 - r, m + 1.0) - math.lgamma(1.0 - r)
    return math.exp(lg) * (n * (1.0 - r) + m * r)


def growing_mean_profile(
    params: WalkParams, schedule: MemorySchedule, n_grid: Iterable[int]
) -> list[tuple[int, float, float]]:
    """Exact (n, E S_n, E N*_n) for the per-step growing-memory walk.

    The simulator lets the block grow with k, which is not the per-horizon
    family the limit statements describe; these recursions quantify that
    finite-n difference exactly (for first-block schedules without the
    recent-step augment).
    """
    if schedule.recent or not schedule.is_first_block:
        raise ValueError("growing profile supports plain first-block schedules")
    grid = sorted(set(int(x) for x in n_grid))
    if not grid or grid[0] < 1:
        raise ValueError("n_grid must contain times >= 1")
    n_max = grid[-1]
    a = params.drift
    w1 = 1.0 - params.r
    mean = [0.0] * (n_max + 1)
    nz = [0.0] * (n_max + 1)
    mean[1] = (2.0 * params.s - 1.0) if params.r == 0.0 else a
    nz[1] = 1.0 if params.r == 0.0 else w1
    for k in range(1, n_max):
        m = schedule.block_size(k)
        mean[k + 1] = mean[k] + a * mean[m] / m
        nz[k + 1] = nz[k] + w1 * nz[m] / m
    return [(n, mean[n], nz[n]) for n in grid]


# ---------------------------------------------------------------------------
# exhaustive enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactPmf:
    """Exact joint law of (S_n, N*_n): support points and their masses."""

    n: int
    support: tuple[tuple[int, int], ...]
    mass: tuple[float, ...]
    params: WalkParams
    schedule: MemorySchedule

    def total_mass(self) -> float:
        return math.fsum(self.mass)

    def s_marginal(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for (s, _), p in zip(self.support, self.mass):
            out[s] = out.get(s, 0.0) + p
        return out

    def moments(self) -> tuple[float, float, float]:
        """(E S_n, E S_n^2, E N*_n)."""
        es = math.fsum(p * s for (s, _), p in zip(self.support, self.mass))
        es2 = math.fsum(p * s * s for (s, _), p in zip(self.support, self.mass))
        en = math.fsum(p * nz for (_, nz), p in zip(self.support, self.mass))
        return es, es2, en


def check_enumerable(params: WalkParams, n: int) -> None:
    """Raise EnumerationCapError if horizon n is above the enumeration cap."""
    cap = ENUM_CAP_TERNARY if params.delayed else ENUM_CAP_BINARY
    if n > cap:
        raise EnumerationCapError(
            f"horizon {n} above the enumeration cap {cap} for "
            f"{'ternary' if params.delayed else 'binary'} paths"
        )


def enumerate_pmf(params: WalkParams, schedule: MemorySchedule, n: int) -> ExactPmf:
    """Exact joint pmf of (S_n, N*_n) by exhaustive path enumeration.

    Depth first over every step sequence of positive probability, the path
    held as prefix sums csum[i] = X_1 + .. + X_i and cnz[i] = N*_i.  Each
    depth reads M_k once through split(k): with lo = max(b, k - w) it holds
    b + k - lo steps of sum csum[b] + csum[k] - csum[lo].  The visit order
    fixes the bits: children -1, 0, +1, a path's mass the product of its
    one-step masses in step order, each support point's mass a Kahan sum in
    visit order.  Capped at ENUM_CAP_BINARY (r = 0) or ENUM_CAP_TERNARY steps.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    check_enumerable(params, n)
    p, q = params.p, params.q
    acc: dict[tuple[int, int], list[float]] = {}  # (S, N*) -> [sum, compensation]
    views = [(0, 0, 0)]  # (b, lo, size) of M_k at index k; M_0 is never read
    for k in range(1, n):
        b, w = schedule.split(k)
        lo = max(b, k - w)
        views.append((b, lo, b + k - lo))
    csum, cnz = [0] * (n + 1), [0] * (n + 1)
    t1, t2 = params.first_step_thresholds()
    # (depth, step, mass), pushed +1, 0, -1 so that -1 pops first; below a
    # popped node's depth, csum and cnz hold its ancestors
    stack = [(1, x, px) for x, px in ((1, t1), (0, t2 - t1), (-1, 1.0 - t2)) if px > 0.0]
    while stack:
        k, x, prob = stack.pop()
        s = csum[k] = csum[k - 1] + x
        z = cnz[k] = cnz[k - 1] + (x != 0)
        if k == n:
            slot = acc.setdefault((s, z), [0.0, 0.0])
            y = prob - slot[1]
            t = slot[0] + y
            slot[1] = (t - slot[0]) - y
            slot[0] = t
            continue
        b, lo, size = views[k]
        sm = csum[b] + s - csum[lo]
        nz = cnz[b] + z - cnz[lo]
        n_plus = (nz + sm) / 2.0
        n_minus = (nz - sm) / 2.0
        p_plus = (p * n_plus + q * n_minus) / size
        p_minus = (q * n_plus + p * n_minus) / size
        p_zero = 1.0 - p_plus - p_minus
        if p_plus > 0.0:
            stack.append((k + 1, 1, prob * p_plus))
        if p_zero > 1e-15:
            stack.append((k + 1, 0, prob * p_zero))
        if p_minus > 0.0:
            stack.append((k + 1, -1, prob * p_minus))
    support = tuple(sorted(acc))
    mass = tuple(acc[k][0] for k in support)
    return ExactPmf(n=n, support=support, mass=mass, params=params, schedule=schedule)
