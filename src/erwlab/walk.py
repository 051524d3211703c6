"""Core step dynamics for elephant random walks with restricted memory.

The walk takes steps in {-1, 0, +1}.  At time n it recalls a subset M_n of
its past step indices, picks one uniformly at random, and repeats that step
with probability p, flips it with probability q, or stays put with
probability r (p + q + r = 1).  A remembered zero step yields a zero step
regardless of the coin.  With r = 0 and q = 1 - p this is the classic
two-valued walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "WalkParams",
    "GrowthRule",
    "MemorySchedule",
    "Trajectory",
    "make_run_stream",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class WalkParams:
    """Probability triple (p, q, r) plus the first-step law.

    p: probability of repeating the remembered step.
    q: probability of flipping it (derived as 1 - p - r when omitted).
    r: probability of staying put; r = 0 gives the two-valued walk.
    s: probability that the first step is +1 when r = 0 (defaults to p).
       When r > 0 the first step is (+1, 0, -1) with probabilities (p, r, q).
    """

    p: float
    q: float = -1.0
    r: float = 0.0
    s: float = -1.0

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"need 0 < p < 1, got p={self.p}")
        if not 0.0 <= self.r < 1.0:
            raise ValueError(f"need 0 <= r < 1, got r={self.r}")
        if self.q < 0.0:
            object.__setattr__(self, "q", 1.0 - self.p - self.r)
        if self.q < -_PROB_TOL:
            raise ValueError(f"need q >= 0, got q={self.q}")
        if abs(self.p + self.q + self.r - 1.0) > _PROB_TOL:
            raise ValueError(
                f"need p + q + r = 1, got {self.p} + {self.q} + {self.r}"
                f" = {self.p + self.q + self.r}"
            )
        # renormalise q so the triple sums to 1 exactly
        object.__setattr__(self, "q", 1.0 - self.p - self.r)
        if self.s < 0.0:
            object.__setattr__(self, "s", self.p)
        if not 0.0 <= self.s <= 1.0:
            raise ValueError(f"need 0 <= s <= 1, got s={self.s}")

    @property
    def delayed(self) -> bool:
        return self.r > 0.0

    @property
    def drift(self) -> float:
        """Mean of a step given a remembered +1: p - q (= 2p - 1 when r = 0)."""
        return self.p - self.q

    def first_step_thresholds(self) -> tuple[float, float]:
        """(t1, t2) so that u < t1 -> +1, u < t2 -> 0, else -1 for uniform u."""
        if self.r == 0.0:
            return self.s, self.s
        return self.p, self.p + self.r


@dataclass(frozen=True)
class GrowthRule:
    """Memory-size rule m(n) = c * n**beta (0 < beta <= 1) or c * log(n)."""

    kind: str = "power"  # "power" or "log"
    c: float = 1.0
    beta: float = 0.5

    def __post_init__(self):
        if self.kind not in ("power", "log"):
            raise ValueError(f"unknown growth kind {self.kind!r}")
        if self.c <= 0.0:
            raise ValueError(f"need c > 0, got c={self.c}")
        if self.kind == "power" and not 0.0 < self.beta <= 1.0:
            raise ValueError(f"need 0 < beta <= 1, got beta={self.beta}")

    def raw(self, n: int) -> float:
        if self.kind == "power":
            return self.c * n**self.beta

        return self.c * math.log(n) if n > 1 else 0.0


@dataclass(frozen=True)
class MemorySchedule:
    """Which past indices the walker recalls at time n.

    Every schedule recalls a first block and a trailing window after it,

        M_n = {1..b} U {max(b, n - w) + 1..n},   (b, w) = split(n),

    and the variants differ only in b and w:

        variant               fields read          b      w
        "full"                -                    n      0
        "first-fixed"         m                    m_n    0
        "first-increasing"    growth               m_n    0
        "first-plus-recent"   m or growth, recent  m_n    recent
        "last-fixed"          m                    0      m_n
        "last-increasing"     growth               0      m_n

    m_n = min(n, m) for a fixed size and min(n, max(1, floor(rule(n)))) for a
    growth rule, so it is nondecreasing with 1 <= m_n <= n; b and w are
    nondecreasing in n as well.  A field the variant does not read must keep
    its default.  "first-plus-recent" with a fixed m freezes the block at that
    size, which is the per-horizon form used when verifying the limit theorems.
    """

    variant: str
    m: int = 0
    growth: Optional[GrowthRule] = None
    recent: int = 0

    _FIRST = ("first-fixed", "first-increasing", "first-plus-recent")
    _LAST = ("last-fixed", "last-increasing")
    _READS = {"full": (), "first-fixed": ("m",), "first-increasing": ("growth",),
              "first-plus-recent": ("m", "growth", "recent"),
              "last-fixed": ("m",), "last-increasing": ("growth",)}

    def __post_init__(self):
        reads = self._READS.get(self.variant)
        if reads is None:
            raise ValueError(f"unknown schedule variant {self.variant!r}")
        for name, default in (("m", 0), ("growth", None), ("recent", 0)):
            if name not in reads and getattr(self, name) != default:
                raise ValueError(f"{self.variant} schedules do not read {name}")
        if self.variant in ("first-fixed", "last-fixed") and self.m < 1:
            raise ValueError("fixed schedules need m >= 1")
        if self.variant in ("first-increasing", "last-increasing") and self.growth is None:
            raise ValueError("increasing schedules need a growth rule")
        if self.variant == "first-plus-recent":
            if self.recent < 1:
                raise ValueError("first-plus-recent needs recent >= 1")
            if self.growth is None and self.m < 1:
                raise ValueError("first-plus-recent needs a growth rule or fixed m")
            if self.growth is not None and self.m != 0:
                raise ValueError("first-plus-recent takes a growth rule or a fixed m, not both")

    # ---- constructors ----

    @classmethod
    def full(cls) -> "MemorySchedule":
        return cls("full")

    @classmethod
    def first_fixed(cls, m: int) -> "MemorySchedule":
        return cls("first-fixed", m=m)

    @classmethod
    def first_increasing(cls, growth: GrowthRule = GrowthRule()) -> "MemorySchedule":
        return cls("first-increasing", growth=growth)

    @classmethod
    def first_plus_recent(
        cls, growth: Optional[GrowthRule] = None, recent: int = 1, m: int = 0
    ) -> "MemorySchedule":
        return cls("first-plus-recent", m=m, growth=growth, recent=recent)

    @classmethod
    def last_fixed(cls, m: int) -> "MemorySchedule":
        return cls("last-fixed", m=m)

    @classmethod
    def last_increasing(cls, growth: GrowthRule = GrowthRule()) -> "MemorySchedule":
        return cls("last-increasing", growth=growth)

    # ---- geometry ----

    @property
    def is_first_block(self) -> bool:
        return self.variant in self._FIRST

    @property
    def is_last_window(self) -> bool:
        return self.variant in self._LAST

    def block_size(self, n: int) -> int:
        """Effective m_n: block size (first-*) or window length (last-*); n for full."""
        if n < 1:
            raise ValueError("time index must be >= 1")
        if self.variant == "full":
            return n
        if self.growth is not None:
            return min(n, max(1, math.floor(self.growth.raw(n))))
        return min(n, self.m)

    def split(self, n: int) -> tuple[int, int]:
        """(b, w) with M_n = {1..b} U {max(b, n - w) + 1..n}; see the class docstring."""
        m = self.block_size(n)
        return (0, m) if self.is_last_window else (m, self.recent)

    def frozen_at_horizon(self, n: int) -> "MemorySchedule":
        """Per-horizon schedule: the block frozen at its size at time n.

        The limit statements concern a family of walks indexed by the horizon;
        the walk observed at horizon n recalls {1..m_n} throughout (so it has
        full memory while k <= m_n).  This helper builds that walk's schedule.
        """
        if self.variant == "full":
            return self
        return MemorySchedule(self.variant.replace("increasing", "fixed"),
                              m=self.block_size(n), recent=self.recent)


def _cut_points(p, q, r, w, size, plus, minus):
    """Cumulative cut points (t1, t2): u < t1 -> +1, u < t2 -> 0, else -1.

    plus and minus count the remembered +1 and -1 steps of a memory of size
    steps, size a float.  t1 and then t2 are evaluated as

        t1 = (p * plus + q * minus) / size
        t2 = t1 + (r + w * (size - plus - minus) / size).

    This is the one-step law: +1 with probability t1, 0 with t2 - t1 and -1
    with 1 - t2 = (q * plus + p * minus) / size.  A remembered zero yields a
    zero whatever the coin, hence the w * zeros / size excess on 0, and the
    conditional mean is (p - q) * (plus - minus) / size.

    minus=None stands for size - plus, a memory without zeros as every one
    of an r = 0 walk is, and returns t2 = t1: the same bits, since r = 0.
    Counts may be scalars or integer arrays of any dtype; each operand before
    the first rounding is an exact integer, so the bits do not depend on it.
    """
    t1 = plus * p
    t1 += (size - plus if minus is None else minus) * q
    t1 /= size
    if minus is None:
        return t1, t1
    t2 = size - plus
    t2 -= minus
    t2 *= w
    t2 /= size
    t2 += r
    t2 += t1
    return t1, t2


def make_run_stream(master_seed: int, run_index: int) -> np.random.Generator:
    """Counter-based stream for one run, derived from (master_seed, run_index).

    Philox keys are 128-bit, so every (seed, run) pair gets an independent
    stream and results never depend on how runs are batched across workers.
    """
    key = np.array([np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(run_index & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Trajectory:
    """(n, S_n, N*_n) at the requested checkpoint times, plus run provenance."""

    checkpoints: tuple[tuple[int, int, int], ...]
    params: WalkParams
    schedule: MemorySchedule
