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
                yield header_ns
                self.engine._schedule_call(
                    deliver,
                    delay=self.config.wire_latency_ns,
                )
                yield serialize_ns - header_ns
            else:
                yield serialize_ns
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
        so it lands one ``wire_latency_ns`` later)."""
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
