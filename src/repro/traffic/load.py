"""Load generation: seeded arrival processes, key popularity, traces.

The production-traffic layer drives every application from *schedules*
computed up front, because determinism across ``--jobs`` counts
demands it: a node's arrival times may depend only on the workload
seed, the node id, and the process parameters — never on global
sampling order, simulation state, or anything another node did.  Each
generator therefore owns a private :class:`random.Random` seeded from
``(seed, node)``, so node 37's schedule is the same sequence in any
process.

Three arrival shapes cover the datacenter-serving literature:

* :class:`PoissonArrivals` — memoryless open-loop load, the baseline
  every queueing result is stated against;
* :class:`MmppArrivals` — a two-state Markov-modulated Poisson process,
  the standard bursty-traffic model (quiet periods punctuated by
  arrival storms that stress tail latency far beyond the mean rate);
* closed-loop client pools live with the applications (a closed loop
  has no schedule — its "arrivals" are reply-triggered).

Key popularity is Zipf-skewed (:class:`ZipfKeys`): rank-``r`` keys draw
with weight ``1/r**skew``, the shape measured for memcached-style
workloads, and the reason hot-key incast is a first-class scenario.

Every schedule is a list of :class:`TraceRecord` rows, which a
scenario can replay exactly or slice per node.
"""

from __future__ import annotations

import bisect
import random
from typing import Iterable, List, NamedTuple

from repro.common.errors import ConfigError

#: mixing constants decoupling the per-node streams of one seed (large
#: odd multipliers; any collision would need node counts past 2**32).
_SEED_MIX = 0x9E3779B1
_NODE_MIX = 0x85EBCA77


def node_rng(seed: int, node: int, salt: int = 0) -> random.Random:
    """A private, deterministic generator for one node's draws.

    The stream depends only on ``(seed, node, salt)`` — the contract
    that makes schedules identical at any job count.
    ``salt`` separates independent uses on the same node (arrival times
    vs key draws) so adding one draw to a stream never shifts another.
    """
    return random.Random((seed & 0xFFFFFFFF) * _SEED_MIX
                         + node * _NODE_MIX + salt)


class PoissonArrivals:
    """Open-loop Poisson arrivals for one node.

    ``rate_rps`` is the node's offered load in requests per second of
    *simulated* time; inter-arrival gaps are exponential with mean
    ``1e9 / rate_rps`` nanoseconds.
    """

    kind = "poisson"

    def __init__(self, rate_rps: float, seed: int = 0, node: int = 0,
                 start_ns: float = 0.0) -> None:
        if rate_rps <= 0:
            raise ConfigError(f"arrival rate must be positive: {rate_rps}")
        self.rate_rps = rate_rps
        self.seed = seed
        self.node = node
        self.start_ns = start_ns

    def schedule(self, n: int) -> List[float]:
        """The node's first ``n`` arrival times (ns, ascending)."""
        rng = node_rng(self.seed, self.node, salt=1)
        rate_per_ns = self.rate_rps / 1e9
        t = self.start_ns
        out: List[float] = []
        for _ in range(n):
            t += rng.expovariate(rate_per_ns)
            out.append(t)
        return out


class MmppArrivals:
    """Two-state Markov-modulated Poisson process (bursty arrivals).

    The process alternates exponentially-distributed sojourns in a
    *quiet* state (``rate_rps``) and a *burst* state (``rate_rps *
    burst_factor``); within a sojourn, arrivals are Poisson at the
    state's rate.  Mean sojourn lengths come from ``quiet_ns`` /
    ``burst_ns``.  The long-run mean rate sits between the two state
    rates, but the tail behaviour is dominated by the bursts — the
    point of using an MMPP at all.
    """

    kind = "mmpp"

    def __init__(self, rate_rps: float, seed: int = 0, node: int = 0,
                 burst_factor: float = 8.0, quiet_ns: float = 200_000.0,
                 burst_ns: float = 50_000.0, start_ns: float = 0.0) -> None:
        if rate_rps <= 0:
            raise ConfigError(f"arrival rate must be positive: {rate_rps}")
        if burst_factor < 1.0:
            raise ConfigError(
                f"burst factor must be >= 1 (got {burst_factor})")
        if quiet_ns <= 0 or burst_ns <= 0:
            raise ConfigError("MMPP sojourn means must be positive")
        self.rate_rps = rate_rps
        self.burst_factor = burst_factor
        self.quiet_ns = quiet_ns
        self.burst_ns = burst_ns
        self.seed = seed
        self.node = node
        self.start_ns = start_ns

    def schedule(self, n: int) -> List[float]:
        """The node's first ``n`` arrival times (ns, ascending)."""
        rng = node_rng(self.seed, self.node, salt=2)
        rates = (self.rate_rps / 1e9,
                 self.rate_rps * self.burst_factor / 1e9)
        sojourns = (self.quiet_ns, self.burst_ns)
        state = 0
        t = self.start_ns
        state_end = t + rng.expovariate(1.0 / sojourns[state])
        out: List[float] = []
        while len(out) < n:
            gap = rng.expovariate(rates[state])
            if t + gap >= state_end:
                # no arrival before the state flips; advance the clock
                # to the transition and redraw in the new state
                t = state_end
                state = 1 - state
                state_end = t + rng.expovariate(1.0 / sojourns[state])
                continue
            t += gap
            out.append(t)
        return out


class ZipfKeys:
    """Zipf-skewed key draws over ``n_keys`` keys for one node.

    Key ``k`` has popularity rank ``k + 1`` (key 0 is the hottest), so
    hot-key incast scenarios can target key 0 knowingly.  The CDF is
    precomputed once; each draw is one uniform plus one bisect.
    ``skew=0`` degrades to uniform.
    """

    def __init__(self, n_keys: int, skew: float = 1.1, seed: int = 0,
                 node: int = 0) -> None:
        if n_keys < 1:
            raise ConfigError("need at least one key")
        if skew < 0:
            raise ConfigError(f"Zipf skew must be non-negative: {skew}")
        self.n_keys = n_keys
        self.skew = skew
        self._rng = node_rng(seed, node, salt=3)
        cdf: List[float] = []
        total = 0.0
        for rank in range(1, n_keys + 1):
            total += rank ** -skew
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def draw(self) -> int:
        """One key id (0-based, 0 = hottest)."""
        u = self._rng.random() * self._total
        return bisect.bisect_left(self._cdf, u)


# ----------------------------------------------------------------------
# replayable traces
# ----------------------------------------------------------------------


class TraceRecord(NamedTuple):
    """One scheduled request of a traffic workload."""

    time_ns: float  #: scheduled (open-loop) arrival time
    node: int  #: client node issuing the request
    op: str  #: application operation ("get", "put", "range", ...)
    key: int  #: key / block / tree id the request addresses
    size: int  #: payload bytes (0 where the op carries none)


def make_kv_trace(n_nodes: int, per_node: int, rate_rps: float, *,
                  seed: int = 0, n_keys: int = 256, skew: float = 1.1,
                  put_fraction: float = 0.25, range_fraction: float = 0.0,
                  value_bytes: int = 8, process: str = "poisson",
                  burst_factor: float = 8.0) -> List[TraceRecord]:
    """A complete KV-store trace: every node's schedule, merged in time.

    Built per node from the seeded generators above and merged on
    ``(time_ns, node)``, so the trace is byte-identical however many
    processes later replay it.
    """
    if not (0.0 <= put_fraction + range_fraction <= 1.0):
        raise ConfigError("op fractions must sum to at most 1")
    records: List[TraceRecord] = []
    for node in range(n_nodes):
        if process == "poisson":
            arrivals = PoissonArrivals(rate_rps, seed=seed, node=node)
        elif process == "mmpp":
            arrivals = MmppArrivals(rate_rps, seed=seed, node=node,
                                    burst_factor=burst_factor)
        else:
            raise ConfigError(f"unknown arrival process {process!r}")
        keys = ZipfKeys(n_keys, skew=skew, seed=seed, node=node)
        ops = node_rng(seed, node, salt=4)
        for t in arrivals.schedule(per_node):
            u = ops.random()
            if u < put_fraction:
                op, size = "put", value_bytes
            elif u < put_fraction + range_fraction:
                op, size = "range", 0
            else:
                op, size = "get", 0
            records.append(TraceRecord(t, node, op, keys.draw(), size))
    records.sort(key=lambda r: (r.time_ns, r.node))
    return records


def node_slice(records: Iterable[TraceRecord], node: int
               ) -> List[TraceRecord]:
    """The sub-trace one client node replays (original time order)."""
    return [r for r in records if r.node == node]
