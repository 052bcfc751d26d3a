"""Load generation: seeded arrival processes, key popularity, traces.

The production-traffic layer drives every application from *schedules*
computed up front, because determinism across ``--jobs`` counts
demands it: a node's arrival times may depend only on the workload
seed, the node id, and the process parameters — never on global
sampling order, simulation state, or anything another node did.  Each
generator therefore owns a private :class:`random.Random` seeded from
``(seed, node)``, so node 37's schedule is the same sequence in any
process.

Arrivals are open-loop Poisson (:class:`PoissonArrivals`): memoryless
load, the baseline every queueing result is stated against.

Key popularity is Zipf-skewed (:class:`ZipfKeys`): rank-``r`` keys draw
with weight ``1/r**skew``, the shape measured for memcached-style
workloads, and the reason hot-key incast is a first-class scenario.

Every schedule is a list of :class:`TraceRecord` rows, which a
scenario replays, sliced per node.
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

    def __init__(self, rate_rps: float, seed: int = 0, node: int = 0) -> None:
        if rate_rps <= 0:
            raise ConfigError(f"arrival rate must be positive: {rate_rps}")
        self.rate_rps = rate_rps
        self.seed = seed
        self.node = node

    def schedule(self, n: int) -> List[float]:
        """The node's first ``n`` arrival times (ns, ascending)."""
        rng = node_rng(self.seed, self.node, salt=1)
        rate_per_ns = self.rate_rps / 1e9
        t = 0.0
        out: List[float] = []
        for _ in range(n):
            t += rng.expovariate(rate_per_ns)
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
# traces
# ----------------------------------------------------------------------


class TraceRecord(NamedTuple):
    """One scheduled request of a traffic workload."""

    time_ns: float  #: scheduled (open-loop) arrival time
    node: int  #: client node issuing the request
    op: str  #: application operation ("get", "put", "tree")
    key: int  #: key / block / tree id the request addresses
    size: int  #: payload bytes (0 where the op carries none)


def make_kv_trace(n_nodes: int, per_node: int, rate_rps: float, *,
                  seed: int = 0, n_keys: int = 256, skew: float = 1.1,
                  put_fraction: float = 0.25, value_bytes: int = 8
                  ) -> List[TraceRecord]:
    """A complete KV-store trace: every node's schedule, merged in time.

    Built per node from the seeded generators above and merged on
    ``(time_ns, node)``, so the trace is byte-identical however many
    processes later replay it.
    """
    if not (0.0 <= put_fraction <= 1.0):
        raise ConfigError("put fraction must lie in [0, 1]")
    records: List[TraceRecord] = []
    for node in range(n_nodes):
        arrivals = PoissonArrivals(rate_rps, seed=seed, node=node)
        keys = ZipfKeys(n_keys, skew=skew, seed=seed, node=node)
        ops = node_rng(seed, node, salt=4)
        for t in arrivals.schedule(per_node):
            if ops.random() < put_fraction:
                op, size = "put", value_bytes
            else:
                op, size = "get", 0
            records.append(TraceRecord(t, node, op, keys.draw(), size))
    records.sort(key=lambda r: (r.time_ns, r.node))
    return records


def node_slice(records: Iterable[TraceRecord], node: int
               ) -> List[TraceRecord]:
    """The sub-trace one client node replays (original time order)."""
    return [r for r in records if r.node == node]
