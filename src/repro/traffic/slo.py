"""SLO accounting: per-request latency into goodput and tail quantiles.

One :class:`SloRecorder` per (client node, application) feeds three
counters and one latency accumulator with names the metrics snapshot
(:mod:`repro.obs.snapshot`) knows how to roll up into the ``traffic``
section:

* ``traffic.<app>.n<node>.offered`` — requests scheduled (a training
  step counts when it starts);
* ``traffic.<app>.n<node>.completed`` — replies received;
* ``traffic.<app>.n<node>.slo_violations`` — completions later than the
  SLO bound;
* ``traffic.<app>.latency_ns`` — the per-request latency distribution
  (an accumulator, so p50/p99/p99.9 ride along for free).

Counters are per-node *names* and the accumulator is per-node *scoped*
through ``node.stats``, so the rollup does not depend on how nodes'
samples interleave — the same discipline every other subsystem
follows.

Open-loop latency is measured from the request's **scheduled** arrival
time, not its send time: when the client falls behind (tx queue full,
service queue saturated) the wait counts against the SLO.  That is what
makes the offered-load vs goodput knee visible — a closed-loop
measurement would self-throttle and hide it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.node.node import NodeBoard

#: default SLO bound for the KV store (40 µs of simulated time).
DEFAULT_SLO_NS = 40_000.0


class SloRecorder:
    """Per-node, per-application request accounting."""

    __slots__ = ("slo_ns", "latency", "offered", "completed", "violations")

    def __init__(self, node: "NodeBoard", app: str,
                 slo_ns: float = DEFAULT_SLO_NS) -> None:
        nid = node.node_id
        self.slo_ns = slo_ns
        self.latency = node.stats.accumulator(f"traffic.{app}.latency_ns")
        self.offered = node.stats.counter(f"traffic.{app}.n{nid}.offered")
        self.completed = node.stats.counter(
            f"traffic.{app}.n{nid}.completed")
        self.violations = node.stats.counter(
            f"traffic.{app}.n{nid}.slo_violations")

    def offer(self, n: int = 1) -> None:
        """Count ``n`` requests entering the system."""
        self.offered.incr(n)

    def complete(self, latency_ns: float) -> None:
        """Record one completed request and check it against the SLO."""
        self.latency.add(latency_ns)
        self.completed.incr()
        if latency_ns > self.slo_ns:
            self.violations.incr()
