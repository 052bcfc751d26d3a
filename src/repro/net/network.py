"""The assembled Arctic network: switches, links, endpoints.

:class:`ArcticNetwork` builds the folded-butterfly fat tree described by
:class:`~repro.net.topology.FatTreeTopology`, wires every switch-switch
and node-switch link pair, and exposes one :class:`NetworkPort` per node.
The NIU's TxU/RxU talk to their port; nothing above this layer knows the
topology exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Set, Tuple

from repro.common.config import NetworkConfig
from repro.common.errors import NetworkError
from repro.net.link import Link
from repro.net.packet import Packet, check_packet_size
from repro.net.switch import ArcticSwitch
from repro.net.topology import FatTreeTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.events import Event
    from repro.sim.stats import StatsRegistry
    from repro.sim.trace import Tracer


class NetworkPort:
    """One node's attachment point: an injection link and a delivery link."""

    def __init__(
        self,
        engine: "Engine",
        network: "ArcticNetwork",
        node: int,
        to_switch: Link,
        from_switch: Link,
    ) -> None:
        self.engine = engine
        self.network = network
        self.node = node
        self._to_switch = to_switch
        self._from_switch = from_switch
        self.injected = 0
        self.delivered = 0
        # per-node scope for order-sensitive float statistics (see
        # StatsRegistry.merged_accumulators).
        stats = network.stats
        self._stats = stats.scoped(f"n{node}") if stats is not None else None

    def inject(self, pkt: Packet) -> Generator["Event", None, None]:
        """Send one packet into the network (process fragment).

        The packet must already carry its route (the NIU's destination
        translation supplies it); injection checks the size cap and stamps
        the injection time for latency statistics.
        """
        check_packet_size(pkt, self.network.config.max_packet_bytes)
        if pkt.sync is None:
            # sync-tagged packets are exempt from both checks: they are
            # consumed by a combining stage rather than source-routed, and
            # a member's reply legitimately comes back addressed to itself
            if pkt.dst == self.node:
                raise NetworkError(
                    f"{pkt!r}: self-sends do not enter the network (CTRL "
                    "loops them back locally)"
                )
            if not pkt.route:
                raise NetworkError(
                    f"{pkt!r} has no route; translation must supply one"
                )
        pkt.inject_time = self.engine.now
        self.injected += 1
        tr = self.network.tracer
        if tr is not None and tr.active:
            tr.instant("net.inject", source=f"port{self.node}",
                       node=self.node, track="net", dst=pkt.dst,
                       bytes=len(pkt.payload))
        yield from self._to_switch.send(pkt)

    def receive(self, priority: int) -> "Event":
        """Event delivering the next arrived packet of ``priority``."""
        ev = self._from_switch.receive(priority)

        def _count(_ev) -> None:
            self.delivered += 1
            pkt = _ev.value
            stats = self._stats
            if stats is not None:
                stats.accumulator("net.latency_ns").add(
                    self.engine.now - pkt.inject_time
                )
            tr = self.network.tracer
            if tr is not None and tr.active:
                tr.instant("net.deliver", source=f"port{self.node}",
                           node=self.node, track="net", src=pkt.src)

        ev.add_callback(_count)
        return ev

class ArcticNetwork:
    """Fat tree of :class:`ArcticSwitch`\\ es with per-node ports."""

    def __init__(
        self,
        engine: "Engine",
        config: NetworkConfig,
        n_nodes: int,
        seed: int = 0,
        stats: Optional["StatsRegistry"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.n_nodes = n_nodes
        self.stats = stats
        self.tracer = tracer
        self.topology = FatTreeTopology(n_nodes, radix=config.radix, seed=seed)
        self.switches: Dict[Tuple[int, int], ArcticSwitch] = {}
        self.links: List[Link] = []
        self._links_by_name: Dict[str, Link] = {}
        #: names of currently-downed links; routing avoids them.  Owned by
        #: :class:`repro.faults.inject.FaultInjector` — empty (and free:
        #: one falsy check per route) on a healthy machine.
        self.down_links: Set[str] = set()
        #: statically known down/up flips, ``(time_ns, name, up)`` sorted
        #: by time — applied lazily as the clock passes them, so a flip
        #: is visible to any route computed at or after its timestamp.
        self._downs_schedule: List[Tuple[float, str, bool]] = []
        self._downs_idx = 0
        self.ports: List[NetworkPort] = []
        self._build()

    # -- construction ------------------------------------------------------

    def _new_link(self, name: str, to_switch: bool) -> Link:
        """Links toward switches may cut through; node-bound hops always
        deliver complete packets (the RxU needs the tail)."""
        link = Link(self.engine, self.config, name,
                    deliver_early=self.config.cut_through and to_switch)
        self.links.append(link)
        self._links_by_name[name] = link
        return link

    def _build(self) -> None:
        topo = self.topology
        d = topo.down_degree
        for level, index in topo.switch_ids():
            self.switches[(level, index)] = ArcticSwitch(
                self.engine, self.config, level, index
            )
        # node <-> level-1 switch links
        for node in range(self.n_nodes):
            leaf = topo.leaf_switch(node)
            up = self._new_link(f"n{node}->sw1.{leaf}", to_switch=True)
            down = self._new_link(f"sw1.{leaf}->n{node}", to_switch=False)
            self.switches[(1, leaf)].attach(node % d, in_link=up,
                                            out_link=down)
            self.ports.append(NetworkPort(self.engine, self, node,
                                          to_switch=up, from_switch=down))
        # switch <-> switch links (child level, child index, up-port b)
        for level in range(1, topo.levels):
            for index in range(topo.switches_per_level):
                child_digit = (index // (d ** (level - 1))) % d
                for b in range(d):
                    p_level, p_index = topo.up_target(level, index, b)
                    up = self._new_link(
                        f"sw{level}.{index}->sw{p_level}.{p_index}",
                        to_switch=True)
                    down = self._new_link(
                        f"sw{p_level}.{p_index}->sw{level}.{index}",
                        to_switch=True)
                    self.switches[(level, index)].attach(
                        d + b, in_link=down, out_link=up)
                    self.switches[(p_level, p_index)].attach(
                        child_digit, in_link=up, out_link=down)
        for sw in self.switches.values():
            sw.start()

    # -- routing helper used by NIU translation tables -------------------------

    def route(self, src: int, dst: int) -> List[int]:
        """Source route (switch port list) between two node leaves.

        Routes computed while links are down steer around them (the
        paper's fat tree has path diversity precisely so single failures
        do not partition the machine)."""
        if not (0 <= dst < self.n_nodes):
            raise NetworkError(f"destination node {dst} does not exist")
        self._apply_downs()
        if self.down_links:
            return self.topology.route(src, dst, avoid=self.down_links)
        return self.topology.route(src, dst)

    def schedule_downs(self, entries: List[Tuple[float, str, bool]]) -> None:
        """Install the statically known link up/down timeline (fault
        arming); entries are ``(time_ns, name, up)``."""
        self._downs_schedule = sorted(entries)
        self._downs_idx = 0

    def _apply_downs(self) -> None:
        sched = self._downs_schedule
        i = self._downs_idx
        if i >= len(sched):
            return
        now = self.engine.now
        while i < len(sched) and sched[i][0] <= now:
            _t, name, up = sched[i]
            if up:
                self.down_links.discard(name)
            else:
                self.down_links.add(name)
            i += 1
        self._downs_idx = i

    def all_link_names(self) -> List[str]:
        """Every link name in the fabric, in build order."""
        return list(self._links_by_name)

    def port(self, node: int) -> NetworkPort:
        """The attachment port of ``node``."""
        return self.ports[node]

    def link_named(self, name: str) -> Link:
        """Look up a link by its wiring name (fault injection)."""
        try:
            return self._links_by_name[name]
        except KeyError:
            raise NetworkError(f"no link named {name!r}") from None

    def node_link_names(self, node: int) -> Tuple[str, str]:
        """``(injection, delivery)`` link names of a node's attachment."""
        if not (0 <= node < self.n_nodes):
            raise NetworkError(f"node {node} does not exist")
        return (self.topology.inject_link_name(node),
                self.topology.deliver_link_name(node))

    # -- diagnostics --------------------------------------------------------------

    def total_packets_forwarded(self) -> int:
        """Sum of per-switch forward counts."""
        return sum(sw.packets_forwarded for sw in self.switches.values())

    def max_link_utilization(self) -> float:
        """Highest transmitter utilization across all links (rx halves of
        cut links have no local transmitter and are skipped)."""
        return max((l.utilization() for l in self.links
                    if hasattr(l, "utilization")), default=0.0)
