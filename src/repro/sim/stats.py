"""Statistics collection.

Components register named statistics in a :class:`StatsRegistry`.  Three
primitive kinds cover everything the experiments need:

* :class:`Counter` — monotonically increasing event counts;
* :class:`Accumulator` — sample statistics (latencies, sizes);
* :class:`BusyTracker` — time-weighted busy/idle accounting, the basis of
  the paper's aP/sP *occupancy* measurements.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.common.errors import SimulationError
from repro.common.histogram import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Counter:
    """A monotonically increasing integer count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def incr(self, by: int = 1) -> None:
        """Add ``by`` (non-negative) to the count."""
        if by < 0:
            raise SimulationError(f"counter {self.name!r} cannot decrease")
        self.value += by

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Accumulator:
    """Streaming mean/min/max/variance over float samples (Welford),
    with a log-bucketed :class:`~repro.common.histogram.Histogram` riding
    along so every latency site reports p50/p90/p99 for free."""

    __slots__ = ("name", "n", "_mean", "_m2", "min", "max", "total", "hist")

    def __init__(self, name: str) -> None:
        self.name = name
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0
        self.hist = Histogram(name)

    def add(self, x: float) -> None:
        """Record one sample."""
        self.n += 1
        self.total += x
        d = x - self._mean
        self._mean += d / self.n
        self._m2 += d * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        self.hist.add(x)

    def merge(self, other: "Accumulator") -> None:
        """Fold ``other``'s samples into this accumulator (Chan et al.).

        The metrics pipeline keeps one accumulator partial per *scope*
        (node, switch) and combines partials in sorted-scope order, so
        the merged floating-point result does not depend on how samples
        from different scopes interleave.
        """
        if other.n == 0:
            return
        if self.n == 0:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            self.hist.merge(other.hist)
            return
        na, nb = self.n, other.n
        n = na + nb
        delta = other._mean - self._mean
        self._mean += delta * nb / n
        self._m2 += other._m2 + delta * delta * na * nb / n
        self.n = n
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.hist.merge(other.hist)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        """Population variance (0.0 with fewer than two samples)."""
        return self._m2 / self.n if self.n > 1 else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def percentile(self, q: float) -> float:
        """Percentile estimate (bucket-resolution; 0.0 when empty)."""
        return self.hist.percentile(q)

    @property
    def p50(self) -> float:
        """Median estimate."""
        return self.hist.p50

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Accumulator({self.name}: n={self.n} mean={self.mean:.2f} "
            f"min={self.min:.2f} max={self.max:.2f})"
        )


class BusyTracker:
    """Time-weighted busy accounting for a unit that is busy or idle.

    Supports nested ``begin``/``end`` pairs (a processor that is "busy"
    inside a handler that itself issues timed sub-work).
    """

    __slots__ = ("name", "engine", "_depth", "_since", "busy_ns", "waker")

    def __init__(self, engine: "Engine", name: str) -> None:
        self.engine = engine
        self.name = name
        self._depth = 0
        self._since = 0.0
        self.busy_ns = 0.0
        #: a dormant spin whose busy sections this tracker also counts
        #: (:class:`repro.sim.process.Spin`): any use wakes it first.
        self.waker = None

    def begin(self) -> None:
        """Enter a busy section."""
        if self.waker is not None:
            self.waker.wake()
        if self._depth == 0:
            self._since = self.engine._now
        self._depth += 1

    def end(self) -> None:
        """Leave a busy section."""
        if self.waker is not None:
            self.waker.wake()
        if self._depth <= 0:
            raise SimulationError(f"busy tracker {self.name!r} not busy")
        self._depth -= 1
        if self._depth == 0:
            self.busy_ns += self.engine._now - self._since

    def current(self) -> float:
        """Busy ns so far, including an open section."""
        if self.waker is not None:
            self.waker.wake()
        open_ns = (self.engine.now - self._since) if self._depth > 0 else 0.0
        return self.busy_ns + open_ns

    def occupancy(self, window_ns: Optional[float] = None) -> float:
        """Busy fraction over ``window_ns`` (defaults to elapsed sim time)."""
        window = window_ns if window_ns is not None else self.engine.now
        return self.current() / window if window > 0 else 0.0


class ScopedStats:
    """A view of a :class:`StatsRegistry` that tags accumulator samples
    with a *scope* (a node or switch id).

    Counters, busy trackers, and integer histogram buckets merge exactly
    in any order, so those pass straight through to the shared registry.
    Accumulator means/variances are floating-point *order dependent*, so
    each scope keeps its own partial; the registry folds partials in
    sorted-scope order (see :meth:`StatsRegistry.merged_accumulators`),
    which makes the merged result independent of event interleaving.
    """

    __slots__ = ("_registry", "scope")

    def __init__(self, registry: "StatsRegistry", scope: str) -> None:
        self._registry = registry
        self.scope = scope

    def counter(self, name: str) -> Counter:
        return self._registry.counter(name)

    def accumulator(self, name: str) -> Accumulator:
        return self._registry.accumulator(name, scope=self.scope)

    def busy_tracker(self, name: str) -> BusyTracker:
        return self._registry.busy_tracker(name)


class StatsRegistry:
    """Hierarchically named statistics, shared by one machine instance."""

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._counters: Dict[str, Counter] = {}
        #: name -> scope -> per-scope partial ("" is the unscoped root).
        self._accumulators: Dict[str, Dict[str, Accumulator]] = {}
        self._busy: Dict[str, BusyTracker] = {}
        self._scoped: Dict[str, ScopedStats] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def accumulator(self, name: str, scope: str = "") -> Accumulator:
        """Get or create the accumulator partial for ``name`` in ``scope``."""
        scopes = self._accumulators.get(name)
        if scopes is None:
            scopes = self._accumulators[name] = {}
        acc = scopes.get(scope)
        if acc is None:
            acc = scopes[scope] = Accumulator(name)
        return acc

    def busy_tracker(self, name: str) -> BusyTracker:
        """Get or create the busy tracker ``name``."""
        if name not in self._busy:
            self._busy[name] = BusyTracker(self.engine, name)
        return self._busy[name]

    def scoped(self, scope: str) -> ScopedStats:
        """A view whose accumulators are kept as per-``scope`` partials."""
        view = self._scoped.get(scope)
        if view is None:
            view = self._scoped[scope] = ScopedStats(self, scope)
        return view

    def merged_accumulators(self) -> Dict[str, Accumulator]:
        """Canonical per-name accumulators: scope partials folded in
        sorted-scope order, so the result does not depend on the order
        samples were interleaved across scopes."""
        out: Dict[str, Accumulator] = {}
        for name, scopes in self._accumulators.items():
            merged = Accumulator(name)
            for scope in sorted(scopes):
                merged.merge(scopes[scope])
            out[name] = merged
        return out

    def names(self) -> List[str]:
        """Every registered statistic name (diagnostics)."""
        return sorted(
            list(self._counters) + list(self._accumulators) + list(self._busy)
        )
