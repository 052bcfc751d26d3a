"""Log-bucketed histogram with exact-enough percentiles.

The observability layer's latency primitive: geometric buckets, eight
per octave, so every recorded value lands in a bucket whose bounds are
within ~9% of the true value — accurate enough for p50/p90/p99 of
latency distributions spanning nanoseconds to milliseconds, at the cost
of one ``log2`` and one dict increment per sample.

Buckets are sparse (a dict keyed by bucket index), so an idle histogram
costs a few hundred bytes regardless of the value range.  Zero and
negative samples are counted separately and sort before every positive
bucket when percentiles are computed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Tuple

#: sub-bucket resolution: 2**(1/8) growth => <= ~9% relative bucket width.
SUB_BUCKET_BITS = 3
BUCKETS_PER_OCTAVE = 1 << SUB_BUCKET_BITS  # 8


def bucket_index(x: float) -> int:
    """Bucket index of a positive value (floor of log2(x) * 8)."""
    return math.floor(math.log2(x) * BUCKETS_PER_OCTAVE)


def bucket_bounds(index: int) -> Tuple[float, float]:
    """Half-open value range ``[lo, hi)`` covered by bucket ``index``."""
    return (2.0 ** (index / BUCKETS_PER_OCTAVE),
            2.0 ** ((index + 1) / BUCKETS_PER_OCTAVE))


def bucket_mid(index: int) -> float:
    """Geometric midpoint of bucket ``index`` (its reported value)."""
    return 2.0 ** ((index + 0.5) / BUCKETS_PER_OCTAVE)


class Histogram:
    """Streaming log-bucketed sample distribution.

    Tracks exact n/min/max/total alongside the bucket counts, so means
    are exact and percentile estimates are clamped into ``[min, max]``
    (single-bucket distributions therefore report exact percentiles).
    """

    __slots__ = ("name", "n", "total", "min", "max", "_counts", "_nonpos")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.n = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._counts: Dict[int, int] = {}
        #: samples <= 0 (latencies should not produce these, but a
        #: histogram must not lose them if they happen).
        self._nonpos = 0

    # -- recording ---------------------------------------------------------

    def add(self, x: float) -> None:
        """Record one sample."""
        self.n += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if x <= 0.0:
            self._nonpos += 1
            return
        idx = math.floor(math.log2(x) * BUCKETS_PER_OCTAVE)
        self._counts[idx] = self._counts.get(idx, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s samples into this histogram."""
        self.n += other.n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._nonpos += other._nonpos
        for idx, count in other._counts.items():
            self._counts[idx] = self._counts.get(idx, 0) + count

    # -- reading -----------------------------------------------------------

    @property
    def mean(self) -> float:
        """Exact sample mean (0.0 when empty)."""
        return self.total / self.n if self.n else 0.0

    def percentile(self, q: float) -> float:
        """Value at percentile ``q`` (0..100), bucket-resolution accurate."""
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.n == 0:
            return 0.0
        target = max(1, math.ceil(self.n * q / 100.0))
        cum = self._nonpos
        if target <= cum:
            # all non-positive samples report the true minimum
            return self.min
        for idx in sorted(self._counts):
            cum += self._counts[idx]
            if cum >= target:
                mid = bucket_mid(idx)
                return min(max(mid, self.min), self.max)
        return self.max  # pragma: no cover - cum == n always hits above

    @property
    def p50(self) -> float:
        """Median estimate."""
        return self.percentile(50.0)

    @property
    def p90(self) -> float:
        """90th-percentile estimate."""
        return self.percentile(90.0)

    @property
    def p99(self) -> float:
        """99th-percentile estimate."""
        return self.percentile(99.0)

    @property
    def p999(self) -> float:
        """99.9th-percentile estimate (the SLO-reporting tail)."""
        return self.percentile(99.9)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (the metrics-snapshot accumulator schema)."""
        return {
            "n": self.n,
            "mean": self.mean,
            "min": self.min if self.n else 0.0,
            "max": self.max if self.n else 0.0,
            "total": self.total,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "p999": self.p999,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Histogram({self.name}: n={self.n} p50={self.p50:.2f} "
                f"p99={self.p99:.2f})")
