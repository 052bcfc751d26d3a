"""Arming a :class:`~repro.faults.plan.FaultPlan` onto a live machine.

Two pieces live here:

* :class:`LinkFaultState` — the per-link fault decision engine.  A link
  with no faults keeps ``link.faults is None`` and its send path pays a
  single attribute check (the zero-overhead-when-off contract); an armed
  link consults this object once per packet.
* :class:`FaultInjector` — walks the plan at machine-assembly time:
  attaches link fault states, schedules timed link-down/up flips, posts
  sP stall events, and schedules whole-node crashes.

Every probabilistic decision hashes ``(plan seed, link name, per-link
packet ordinal)`` — per-machine state only, so two machines built from
the same config fault identically regardless of process layout (the
``run_sweep --jobs`` determinism contract).  Notably the decision does
*not* key off ``Packet.seq``, which comes from a process-global counter.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from repro.faults.plan import FaultPlan, fault_hash01, link_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager
    from repro.net.link import Link
    from repro.net.packet import Packet
    from repro.sim.stats import StatsRegistry
    from repro.sim.trace import Tracer

#: outcomes of one per-packet fault decision (corruption delivers).
FATE_DELIVER = 0
FATE_DROP = 1


class LinkFaultState:
    """Per-link fault decisions: probabilistic drop/corrupt plus down state."""

    __slots__ = ("link_name", "key", "drop_p", "corrupt_p", "down",
                 "ordinal", "dropped", "corrupted", "stats", "tracer")

    def __init__(self, link_name: str, key: int, drop_p: float = 0.0,
                 corrupt_p: float = 0.0,
                 stats: Optional["StatsRegistry"] = None,
                 tracer: Optional["Tracer"] = None) -> None:
        self.link_name = link_name
        self.key = key
        self.drop_p = drop_p
        self.corrupt_p = corrupt_p
        self.down = False
        #: per-link packet ordinal — the deterministic "random" stream index.
        self.ordinal = 0
        self.dropped = 0
        self.corrupted = 0
        self.stats = stats
        self.tracer = tracer

    def fate(self, pkt: "Packet") -> int:
        """Decide one packet's fate; corruption mutates it in place."""
        if self.down:
            self.dropped += 1
            self._note("faults.link_down_drops", "down", pkt)
            return FATE_DROP
        if pkt.sync is not None:
            # switch-resident combining rides the fabric's lossless
            # contract (credit flow control + CRC): a dropped combined
            # request would wedge a whole reduction tree, which is why
            # SHARP-style in-switch collectives run over a reliable
            # transport.  Counted, so the exemption is visible.
            self._note("faults.sync_exempt", "sync_exempt", pkt)
            return FATE_DELIVER
        n = self.ordinal
        self.ordinal = n + 1
        if self.drop_p > 0.0 and fault_hash01(self.key, n, 0) < self.drop_p:
            self.dropped += 1
            self._note("faults.dropped", "loss", pkt)
            return FATE_DROP
        if self.corrupt_p > 0.0 and fault_hash01(self.key, n, 1) < self.corrupt_p:
            pkt.corrupt(n)
            self.corrupted += 1
            self._note("faults.corrupted", "corrupt", pkt)
        return FATE_DELIVER

    def _note(self, counter: str, why: str, pkt: "Packet") -> None:
        if self.stats is not None:
            self.stats.counter(counter).incr()
        tr = self.tracer
        if tr is not None and tr.active:
            tr.instant(f"faults.{why}", source=self.link_name, track="faults",
                       src=pkt.src, dst=pkt.dst, queue=pkt.dst_queue)


def _absorb(_ev) -> None:
    """Join-callback for crashed aP programs: the injector is the parent,
    so the interrupt does not surface as an unjoined process crash."""


class FaultInjector:
    """Arms one plan onto one machine (built by StarTVoyager at assembly)."""

    def __init__(self, machine: "StarTVoyager", plan: FaultPlan) -> None:
        self.machine = machine
        self.plan = plan
        self.crashed_nodes: Set[int] = set()
        self._armed = False

    # -- arming ------------------------------------------------------------

    def arm(self) -> None:
        """Attach link fault states and schedule every timed fault.

        Each timed action is an engine event; the routing-visible
        down/up timeline — statically known from the plan — is also
        installed on the network via :meth:`ArcticNetwork.schedule_downs`
        so routes see a flip from its timestamp on.
        """
        if self._armed:
            return
        self._armed = True
        self._arm_links()
        self._arm_crashes()
        self._arm_link_events()
        self._arm_stalls()
        self._install_downs_timeline()

    def _arm_links(self) -> None:
        net = self.machine.network
        if net is None or not self.plan.link_faults:
            return
        for link in net.links:
            for lf in self.plan.link_faults:
                if fnmatch(link.name, lf.pattern):
                    # first matching entry wins (specific before general)
                    self._state_for(link, drop_p=lf.drop_p,
                                    corrupt_p=lf.corrupt_p)
                    break

    def _timed_flips(self) -> List[Tuple[float, str, bool]]:
        """Every statically known ``(time, link name, up)`` flip: plan
        link events plus the attachment drops implied by node crashes —
        matched against every link name in the fabric."""
        net = self.machine.network
        if net is None:
            return []
        flips: List[Tuple[float, str, bool]] = []
        universe = net.all_link_names()
        for ev in self.plan.link_events:
            for name in universe:
                if fnmatch(name, ev.link):
                    flips.append((ev.time_ns, name, ev.up))
        for cr in self.plan.node_crashes:
            for name in net.node_link_names(cr.node):
                flips.append((cr.time_ns, name, False))
        return flips

    def _arm_link_events(self) -> None:
        engine = self.machine.engine
        for time_ns, name, up in self._timed_flips():
            engine._schedule_call(
                lambda n=name, u=up: self.set_link(n, up=u),
                delay=time_ns,
            )

    def _install_downs_timeline(self) -> None:
        net = self.machine.network
        if net is None:
            return
        flips = self._timed_flips()
        if flips:
            net.schedule_downs(flips)

    def _arm_stalls(self) -> None:
        if not self.plan.sp_stalls:
            return
        engine = self.machine.engine
        for node in self.machine.nodes:
            node.sp.register("fault.stall", _stall_handler)
        for st in self.plan.sp_stalls:
            board = self.machine.nodes[st.node]
            engine._schedule_call(
                lambda b=board, d=st.duration_ns:
                    b.niu.sbiu.post_event(("fault.stall", d)),
                delay=st.time_ns,
            )

    def _arm_crashes(self) -> None:
        engine = self.machine.engine
        for cr in self.plan.node_crashes:
            engine._schedule_call(lambda n=cr.node: self._crash_board(n),
                                  delay=cr.time_ns)

    def _state_for(self, link: "Link", drop_p: float = 0.0,
                   corrupt_p: float = 0.0) -> LinkFaultState:
        st = link.faults
        if st is None:
            st = LinkFaultState(
                link.name, link_key(self.plan.seed, link.name),
                drop_p=drop_p, corrupt_p=corrupt_p,
                stats=self.machine.stats, tracer=self.machine.tracer,
            )
            link.faults = st
        return st

    # -- runtime fault actions (also callable directly from tests) ---------

    def set_link(self, name: str, up: bool) -> None:
        """Flip one link's up/down state; routing re-computes around it."""
        net = self.machine.network
        assert net is not None, "no network to fault"
        link = net.link_named(name)
        st = self._state_for(link)
        st.down = not up
        if up:
            net.down_links.discard(name)
        else:
            net.down_links.add(name)
        self.machine.stats.counter(
            "faults.link_up" if up else "faults.link_down").incr()
        tr = self.machine.tracer
        if tr is not None and tr.active:
            tr.instant("faults.link_up" if up else "faults.link_down",
                       source=name, track="faults")

    def _crash_board(self, node_id: int) -> None:
        if node_id in self.crashed_nodes:
            return
        self.crashed_nodes.add(node_id)
        board = self.machine.nodes[node_id]
        board.ctrl.crashed = True
        board.sp.halted = True
        for proc in board.ap.programs:
            if proc.is_alive:
                # absorb the interrupt: the injector "joins" the victim so
                # the kill is not reported as an unhandled process crash
                proc.add_callback(_absorb)
                proc.interrupt("node crash")
        self.machine.stats.counter("faults.node_crashes").incr()
        tr = self.machine.tracer
        if tr is not None and tr.active:
            tr.instant("faults.crash", source=f"node{node_id}", node=node_id,
                       track="faults")


def _stall_handler(sp, event: Tuple) -> "object":
    """Firmware-level stall: the engine sits busy doing nothing."""
    _kind, duration_ns = event
    sp.stats.counter("faults.sp_stalls").incr()
    yield duration_ns


__all__: List[str] = [
    "FaultInjector",
    "LinkFaultState",
    "FATE_DELIVER",
    "FATE_DROP",
]
