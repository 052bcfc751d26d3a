"""Periodic queue-depth / occupancy time-series sampling.

A :class:`QueueSampler` is a simulation process that wakes every
``period_ns`` and records, per node:

* the depth (producer - consumer) of every hardware tx and rx queue,
  plus the firmware miss queue;
* the aP and sP busy fraction *over the elapsed window* (not cumulative
  — so the series shows load changing over time).

Samples are ``(t_ns, node, series, value)`` rows, bounded by
``max_samples``, and feed the Perfetto exporter's counter tracks.

Zero-overhead-when-off: nothing samples until :meth:`start` runs (the
:class:`~repro.obs.core.Observability` facade calls it for you), and a
stopped sampler's process exits at its next wakeup.  Note that a running
sampler keeps the event heap non-empty — drive sampled runs with
``machine.run_all(...)`` / ``machine.run(until=...)`` rather than a
drain-the-heap ``machine.run()``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager

Sample = Tuple[float, Optional[int], str, float]


class QueueSampler:
    """Fixed-period sampler of queue depths and processor occupancy."""

    def __init__(self, machine: "StarTVoyager", period_ns: float = 1000.0,
                 max_samples: int = 100_000) -> None:
        if period_ns <= 0:
            raise ValueError(f"sample period must be positive: {period_ns}")
        self.machine = machine
        self.period_ns = float(period_ns)
        self.samples: Deque[Sample] = deque(maxlen=max_samples)
        self._running = False
        self._busy_last: Dict[str, float] = {}

    def start(self) -> "QueueSampler":
        """Spawn the sampling process (idempotent)."""
        if not self._running:
            self._running = True
            self.machine.engine.process(self._run(), name="obs.sampler", daemon=True)
        return self

    def stop(self) -> None:
        """Stop sampling; the process exits at its next wakeup."""
        self._running = False

    def _take(self) -> None:
        engine = self.machine.engine
        engine.wake_dormant()
        now = engine.now
        add = self.samples.append
        for node in self.machine.nodes:
            nid = node.node_id
            for q in node.ctrl.tx_queues:
                add((now, nid, f"txq{q.index}.depth",
                     float(q.producer - q.consumer)))
            for q in node.ctrl.rx_queues:
                add((now, nid, f"rxq{q.logical_id}.depth",
                     float(q.producer - q.consumer)))
            add((now, nid, "missq.depth", float(len(node.ctrl.miss_queue))))
            for name, tracker in (("ap", node.ap.busy), ("sp", node.sp.busy)):
                key = f"{nid}.{name}"
                busy = tracker.current()
                delta = busy - self._busy_last.get(key, 0.0)
                self._busy_last[key] = busy
                add((now, nid, f"{name}.occupancy",
                     min(1.0, delta / self.period_ns)))

    def _run(self):
        while self._running:
            yield self.period_ns
            if not self._running:
                return
            self._take()

    def series(self, name: str, node: Optional[int] = None):
        """``(t_ns, value)`` pairs of one series (optionally one node)."""
        return [(t, v) for t, n, s, v in self.samples
                if s == name and (node is None or n == node)]
