"""The Arctic switch model.

A radix-``2d`` packet switch: ``d`` down ports and ``d`` up ports, each
an incoming :class:`~repro.net.link.Link` and an outgoing one.  Packets
are source-routed: each switch consumes one routing digit and forwards on
that output port after the fall-through latency.

One forwarding process runs per (input port, priority) pair — the two
priorities act as independent virtual channels through the switch, so
low-priority congestion cannot block high-priority traffic (the property
the paper demands of the network layer).  Output contention resolves at
the outgoing link's priority-arbitrated transmitter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.common.config import NetworkConfig
from repro.common.errors import NetworkError
from repro.net.link import Link
from repro.net.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.combine import CombineStage
    from repro.sim.engine import Engine
    from repro.sim.stats import StatsRegistry


class ArcticSwitch:
    """One switch: forwarding processes wired between in/out links."""

    def __init__(
        self,
        engine: "Engine",
        config: NetworkConfig,
        level: int,
        index: int,
    ) -> None:
        self.engine = engine
        self.config = config
        self.level = level
        self.index = index
        self.name = f"sw{level}.{index}"
        #: port number -> incoming link (traffic arriving at this switch).
        self.in_links: Dict[int, Link] = {}
        #: port number -> outgoing link (traffic leaving this switch).
        self.out_links: Dict[int, Link] = {}
        self.packets_forwarded = 0
        #: in-network computing stage (:class:`repro.net.combine
        #: .CombineStage`); ``None`` until a reduction tree is planned
        #: through this switch, so unprogrammed switches pay exactly one
        #: attribute test per packet.
        self.combiner: Optional["CombineStage"] = None
        self._started = False

    def attach(self, port: int, in_link: Optional[Link], out_link: Optional[Link]) -> None:
        """Wire one port.  ``None`` leaves a direction unconnected (unused
        leaf slots on a padded fat tree)."""
        if self._started:
            raise NetworkError(f"{self.name}: cannot attach ports after start")
        if in_link is not None:
            self.in_links[port] = in_link
        if out_link is not None:
            self.out_links[port] = out_link

    def start(self) -> None:
        """Spawn the forwarding processes (one per input lane)."""
        if self._started:
            return
        self._started = True
        for port, link in self.in_links.items():
            for priority in range(self.config.priorities):
                self.engine.process(
                    self._forward(port, link, priority),
                    name=f"{self.name}.in{port}.p{priority}",
                    daemon=True,
                )

    def ensure_combiner(self, stats: Optional["StatsRegistry"] = None,
                        sanitizer: Any = None) -> "CombineStage":
        """The switch's combining stage, created on first demand."""
        if self.combiner is None:
            from repro.net.combine import CombineStage
            self.combiner = CombineStage(self.engine, self, stats=stats,
                                         sanitizer=sanitizer)
        return self.combiner

    def _forward(self, port: int, in_link: Link, priority: int):
        while True:
            pkt: Packet = yield in_link.receive(priority)
            yield self.config.switch_latency_ns
            if pkt.sync is not None:
                # in-network computing: tagged packets terminate in the
                # combining stage instead of consuming a routing digit
                combiner = self.combiner
                if combiner is None:
                    raise NetworkError(
                        f"{self.name}: sync-tagged {pkt!r} reached a switch "
                        "with no combining stage programmed"
                    )
                yield from combiner.accept(port, pkt)
                continue
            out_port = pkt.next_port()
            out = self.out_links.get(out_port)
            if out is None:
                raise NetworkError(
                    f"{self.name}: {pkt!r} routed to unconnected port {out_port}"
                )
            # fault injection: a packet already in the fabric when its next
            # link went down is discarded here — the switch detects the
            # dead link and never occupies its transmitter.  Packets
            # injected *after* the failure get re-routed at the source.
            fs = out.faults
            if fs is not None and fs.down:
                fs.fate(pkt)  # records the down-drop
                continue
            self.packets_forwarded += 1
            yield from out.send(pkt)
