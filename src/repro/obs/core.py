"""The machine-wide observability facade.

One object, hung off :class:`~repro.core.machine.StarTVoyager` as
``machine.obs``, gathers the measurement surface the paper's evaluation
methodology needs:

* category control (``obs.enable("niu", "mp")``) over the machine's
  :class:`~repro.sim.trace.Tracer`, whose spans components open
  directly;
* periodic queue-depth/occupancy sampling (:meth:`start_sampler`);
* exporters: :meth:`snapshot` (schema-versioned metrics dict) and
  :meth:`export_perfetto` (Chrome/Perfetto timeline).

Everything here is off until asked for: with no categories enabled and
no sampler started, the only machine-wide cost is the always-on
counters/accumulators the simulator has carried since the seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.obs.perfetto import export_perfetto
from repro.obs.sampler import QueueSampler
from repro.obs.snapshot import metrics_snapshot

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager


class Observability:
    """Tracing, sampling, and export for one machine instance."""

    def __init__(self, machine: "StarTVoyager") -> None:
        self.machine = machine
        self.tracer = machine.tracer
        self.samplers: List[QueueSampler] = []

    # -- tracing control ---------------------------------------------------

    def enable(self, *categories: str) -> "Observability":
        """Enable trace categories ("*" = everything); chainable."""
        self.tracer.enable(*categories)
        return self

    def disable(self, *categories: str) -> None:
        """Disable trace categories ("*" clears everything)."""
        self.tracer.disable(*categories)

    # -- sampling ----------------------------------------------------------

    def start_sampler(self, period_ns: float = 1000.0,
                      max_samples: int = 100_000) -> QueueSampler:
        """Start a queue-depth/occupancy sampler (see its caveats)."""
        sampler = QueueSampler(self.machine, period_ns, max_samples)
        self.samplers.append(sampler)
        return sampler.start()

    def stop_samplers(self) -> None:
        """Stop every sampler started through this facade."""
        for sampler in self.samplers:
            sampler.stop()

    # -- export ------------------------------------------------------------

    def snapshot(self, include_config: bool = True) -> Dict[str, Any]:
        """Schema-versioned metrics snapshot (see :mod:`repro.obs.snapshot`)."""
        return metrics_snapshot(self.machine, include_config=include_config)

    def export_perfetto(self, path: Optional[str] = None) -> Dict[str, Any]:
        """Build (and optionally write) the Perfetto trace document."""
        return export_perfetto(self.machine, path, samplers=self.samplers)
