"""Unidirectional Arctic links with credit-based flow control.

A link serializes packets at the configured bandwidth (160 MB/s →
6.25 ns/byte), adds a wire latency, and delivers into a *bounded*
per-priority receive buffer.  The sender must hold a credit for the
target buffer before serializing, so a full buffer backpressures the
upstream switch — head-of-line, per priority lane, exactly the behaviour
that makes two network priorities necessary for deadlock-free protocols.

The transmitter is a priority-arbitrated resource: when packets of both
priorities are waiting for the same link, the high-priority one
serializes first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List

from repro.common.config import NetworkConfig
from repro.common.errors import NetworkError
from repro.net.packet import Packet
from repro.sim.resource import PriorityResource
from repro.sim.store import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.events import Event


class Link:
    """One direction of one physical link.

    ``deliver_early`` enables virtual cut-through on this hop: the packet
    becomes available downstream after only its *header* has serialized
    (the transmitter stays busy for the full packet, preserving
    bandwidth).  Switch-bound hops use it when the network is configured
    cut-through; the final hop into a node always waits for the tail —
    the RxU cannot hand an incomplete packet to CTRL.
    """

    def __init__(self, engine: "Engine", config: NetworkConfig, name: str,
                 deliver_early: bool = False) -> None:
        self.engine = engine
        self.config = config
        self.name = name
        self.deliver_early = deliver_early
        self._tx = PriorityResource(engine, 1, name=f"{name}.tx")
        self._buffers: List[Store] = [
            Store(engine, capacity=config.buffer_packets, name=f"{name}.rx{p}")
            for p in range(config.priorities)
        ]
        self._credits: List[Store] = []
        for p in range(config.priorities):
            credits = Store(engine, capacity=config.buffer_packets, name=f"{name}.cr{p}")
            for _ in range(config.buffer_packets):
                credits.try_put(object())
            self._credits.append(credits)
        # statistics
        self.packets_sent = 0
        self.bytes_sent = 0
        #: fault-injection hook (:class:`repro.faults.inject.LinkFaultState`).
        #: None on a healthy link — the send path pays one attribute check
        #: (the zero-overhead-when-off contract).
        self.faults = None

    # -- sender side ---------------------------------------------------------

    def send(self, pkt: Packet) -> Generator["Event", None, None]:
        """Transmit one packet (process fragment; blocks under backpressure)."""
        if not (0 <= pkt.priority < self.config.priorities):
            raise NetworkError(f"{pkt!r}: priority outside this network's range")
        # credit first: never occupy the wire for a packet that cannot land.
        yield self._credits[pkt.priority].get()
        if not self._tx.try_acquire():
            yield self._tx.request(pkt.priority)
        buffer = self._buffers[pkt.priority]
        # one size lookup per transmission; every charge below uses it
        wire_bytes = pkt.wire_bytes
        serialize_ns = wire_bytes * self.config.ns_per_byte
        # fault injection: a dropped packet still serializes (the wire is
        # occupied before it vanishes) and its receive-buffer credit must
        # come home at delivery time, or the lane would wedge after
        # ``buffer_packets`` losses.  Corruption mutates the packet in
        # place; it delivers normally and rx checksum verification fails.
        fs = self.faults
        dropped = fs is not None and fs.fate(pkt) != 0
        if dropped:
            deliver = lambda: self._credits[pkt.priority].try_put(object())  # noqa: E731
        else:
            deliver = lambda: buffer.try_put(pkt)  # noqa: E731
        try:
            if self.deliver_early:
                # cut-through: the head proceeds after the header; the
                # transmitter stays busy until the tail has left
                header_ns = min(wire_bytes, self.config.header_bytes) \
                    * self.config.ns_per_byte
                yield self.engine.timeout(header_ns)
                self.engine._schedule_call(
                    deliver,
                    delay=self.config.wire_latency_ns,
                )
                yield self.engine.timeout(serialize_ns - header_ns)
            else:
                yield self.engine.timeout(serialize_ns)
                self.engine._schedule_call(
                    deliver,
                    delay=self.config.wire_latency_ns,
                )
        finally:
            self._tx.release()
        self.packets_sent += 1
        self.bytes_sent += wire_bytes

    # -- receiver side ----------------------------------------------------------

    def receive(self, priority: int) -> "Event":
        """Event yielding the next packet of ``priority`` (consumes a slot;
        the freed credit flies back to the sender over the reverse wire,
        so it lands one ``wire_latency_ns`` later).

        The return latency matters for the sharded engine: it makes the
        credit path a nonzero-lookahead channel, so a link cut at a shard
        boundary can carry flow control through the same time-window
        barrier as its packets (see :mod:`repro.shard`).  It is applied
        uniformly — cut or not — so timing is identical at any shard
        count.
        """
        ev = self._buffers[priority].get()
        ev.add_callback(
            lambda _ev: self.engine._schedule_call(
                lambda: self._credits[priority].try_put(object()),
                delay=self.config.wire_latency_ns,
            )
        )
        return ev

    def pending(self, priority: int) -> int:
        """Packets buffered at the receiver for one priority (diagnostics)."""
        return len(self._buffers[priority])

    def utilization(self) -> float:
        """Busy fraction of the transmitter (diagnostics)."""
        return self._tx.utilization()


class CutLinkTx:
    """Sender-shard half of a link cut at a shard boundary.

    Behaves exactly like :class:`Link`'s sender side — credit gate,
    priority-arbitrated transmitter, serialization, fault fates — but at
    the moment a delivery would be scheduled locally it instead *emits* a
    boundary message stamped ``now + wire_latency_ns``; the shard runner
    carries it across and the far shard's :class:`CutLinkRx` lands it in
    the receive buffer at that exact time.  Credits consumed here are
    refilled by :meth:`credit_return`, driven by the runner from the far
    side's credit emissions — the same one-wire-delay round trip an uncut
    link pays, so cutting a link never changes timing.
    """

    is_cut_half = True

    def __init__(self, engine: "Engine", config: NetworkConfig, name: str,
                 emit_pkt, deliver_early: bool = False) -> None:
        self.engine = engine
        self.config = config
        self.name = name
        self.deliver_early = deliver_early
        self._emit_pkt = emit_pkt
        self._tx = PriorityResource(engine, 1, name=f"{name}.tx")
        self._credits: List[Store] = []
        for p in range(config.priorities):
            credits = Store(engine, capacity=config.buffer_packets, name=f"{name}.cr{p}")
            for _ in range(config.buffer_packets):
                credits.try_put(object())
            self._credits.append(credits)
        self.packets_sent = 0
        self.bytes_sent = 0
        self.faults = None

    def send(self, pkt: Packet) -> Generator["Event", None, None]:
        """Transmit one packet toward the far shard (process fragment)."""
        if not (0 <= pkt.priority < self.config.priorities):
            raise NetworkError(f"{pkt!r}: priority outside this network's range")
        yield self._credits[pkt.priority].get()
        if not self._tx.try_acquire():
            yield self._tx.request(pkt.priority)
        wire_bytes = pkt.wire_bytes
        serialize_ns = wire_bytes * self.config.ns_per_byte
        fs = self.faults
        dropped = fs is not None and fs.fate(pkt) != 0
        try:
            if self.deliver_early:
                header_ns = min(wire_bytes, self.config.header_bytes) \
                    * self.config.ns_per_byte
                yield self.engine.timeout(header_ns)
                self._commit(pkt, dropped)
                yield self.engine.timeout(serialize_ns - header_ns)
            else:
                yield self.engine.timeout(serialize_ns)
                self._commit(pkt, dropped)
        finally:
            self._tx.release()
        self.packets_sent += 1
        self.bytes_sent += wire_bytes

    def _commit(self, pkt: Packet, dropped: bool) -> None:
        arrival = self.engine.now + self.config.wire_latency_ns
        if dropped:
            # the packet vanishes on the wire; its credit comes home at
            # what would have been delivery time, exactly as on an uncut
            # link — no boundary traffic for a lost packet.
            priority = pkt.priority
            self.engine._schedule_call(
                lambda: self._credits[priority].try_put(object()),
                delay=self.config.wire_latency_ns,
            )
        else:
            self._emit_pkt(arrival, pkt)

    def credit_return(self, priority: int) -> None:
        """Land one returning credit (runner injection at its stamped time)."""
        self._credits[priority].try_put(object())

    def utilization(self) -> float:
        """Busy fraction of the transmitter (diagnostics)."""
        return self._tx.utilization()


class CutLinkRx:
    """Receiver-shard half of a link cut at a shard boundary.

    Owns the bounded receive buffers.  :meth:`deliver` is driven by the
    shard runner at each packet's stamped arrival time; consuming a
    packet emits a credit boundary message stamped one wire latency out,
    mirroring :meth:`Link.receive`'s delayed credit return.
    """

    is_cut_half = True

    def __init__(self, engine: "Engine", config: NetworkConfig, name: str,
                 emit_credit) -> None:
        self.engine = engine
        self.config = config
        self.name = name
        self._emit_credit = emit_credit
        self._buffers: List[Store] = [
            Store(engine, capacity=config.buffer_packets, name=f"{name}.rx{p}")
            for p in range(config.priorities)
        ]
        # fault plans match by link name; the decision engine only ever
        # runs on the tx side, so a state attached here is inert.
        self.faults = None

    def deliver(self, pkt: Packet) -> None:
        """Land one packet (runner injection at its stamped arrival time)."""
        self._buffers[pkt.priority].try_put(pkt)

    def receive(self, priority: int) -> "Event":
        """Event yielding the next packet of ``priority``."""
        ev = self._buffers[priority].get()
        ev.add_callback(
            lambda _ev: self._emit_credit(
                self.engine.now + self.config.wire_latency_ns, priority)
        )
        return ev

    def pending(self, priority: int) -> int:
        """Packets buffered at the receiver for one priority (diagnostics)."""
        return len(self._buffers[priority])
