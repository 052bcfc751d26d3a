"""Basic messages: the user-level view of a CTRL queue pair.

"A basic message has a variable length data section of up to 88 bytes
... Application code manipulates pointers to transmit and receive
buffers.  The implementation merely exports the underlying message
passing primitive to the user."

A :class:`BasicPort` owns one hardware transmit queue and one logical
receive queue of a node.  Its methods are generator fragments run *on
the aP* (``yield from port.send(api, ...)``), so every SRAM write,
pointer update and poll is a real bus operation with real cost:

* send: compose header+payload into the aSRAM window (line bursts),
  then one uncached store advances the producer pointer;
* receive: poll the producer shadow with uncached loads, read the entry
  from the aSRAM window, retire it with one consumer-pointer store.

TagOn attachments ride the same port: stage the attachment into user
aSRAM once with :meth:`stage_tagon`, then name it in any number of
sends — "a pointer in the message description specifies the data in
SRAM".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Tuple

from repro.common.errors import ProgramError, ProtectionViolation
from repro.mem.address import ASRAM_BASE, NIU_CTL_BASE
from repro.niu.handlers import pointer_offset
from repro.niu.msgformat import (
    FLAG_TAGON,
    HEADER_BYTES,
    MAX_PAYLOAD,
    TAGON_LARGE_UNITS,
    TAGON_SMALL_UNITS,
    TAGON_UNIT_BYTES,
    MsgHeader,
    decode_rx_header,
    encode_header,
)
from repro.niu.niu import PTR_WINDOW_OFF, SP_REL_TX_QUEUE, vdst_for
from repro.niu.queues import BANK_A, QUEUE_RX, QUEUE_TX, QueueState

if TYPE_CHECKING:  # pragma: no cover
    from repro.node.ap import ApApi
    from repro.node.node import NodeBoard
    from repro.sim.events import Event


class BasicPort:
    """User-level endpoint over one tx queue + one logical rx queue."""

    def __init__(self, node: "NodeBoard", tx_index: int,
                 rx_logical: int) -> None:
        niu = node.niu
        self.node = node
        self.stats = node.stats
        self.tx: QueueState = niu.ctrl.tx_queues[tx_index]
        if self.tx.bank != BANK_A:
            raise ProgramError("BasicPort needs an aSRAM-backed tx queue")
        self.rx: QueueState = niu.ap_rx_slot(rx_logical)
        self.rx_logical = rx_logical
        # user-space pointer mirrors (re-read from hardware only on demand)
        self._tx_producer = self.tx.producer
        self._tx_known_consumer = self.tx.consumer
        self._rx_consumer = self.rx.consumer
        # the four pointer registers this port touches, decoded once
        ptr_base = NIU_CTL_BASE + PTR_WINDOW_OFF
        self._tx_producer_addr = ptr_base + pointer_offset(
            QUEUE_TX, self.tx.index, "producer")
        self._tx_consumer_addr = ptr_base + pointer_offset(
            QUEUE_TX, self.tx.index, "consumer")
        self._rx_producer_addr = ptr_base + pointer_offset(
            QUEUE_RX, self.rx.index, "producer")
        self._rx_consumer_addr = ptr_base + pointer_offset(
            QUEUE_RX, self.rx.index, "consumer")
        self.sent = 0
        self.received = 0

    # -- address helpers -------------------------------------------------------

    def _tx_slot_addr(self, n: int) -> int:
        return ASRAM_BASE + self.tx.slot_offset(n)

    def _rx_slot_addr(self, n: int) -> int:
        return ASRAM_BASE + self.rx.slot_offset(n)

    # -- transmit ------------------------------------------------------------------

    def send(
        self,
        api: "ApApi",
        vdst: int,
        payload: bytes,
        tagon: Optional[Tuple[int, int]] = None,
        raw: bool = False,
        dst_queue: int = 0,
    ) -> Generator["Event", None, None]:
        """Compose and launch one message (blocks while the queue is full).

        ``tagon`` is ``(asram_offset, units)`` from :meth:`stage_tagon`.
        With ``raw=True``, ``vdst`` is the *physical* destination node
        and ``dst_queue`` the destination logical queue — kernel-mode
        addressing that bypasses translation (the tx queue must be
        ``allow_raw``; machines beyond 16 nodes are assembled this way).
        """
        if len(payload) > MAX_PAYLOAD:
            raise ProgramError(f"payload {len(payload)} exceeds {MAX_PAYLOAD}")
        flags = 0x01 if raw else 0
        hdr = MsgHeader(flags=flags, vdst=vdst, length=len(payload),
                        dst_queue=dst_queue if raw else 0)
        if tagon is not None:
            offset, units = tagon
            if units not in (TAGON_SMALL_UNITS, TAGON_LARGE_UNITS):
                raise ProgramError(f"bad TagOn units {units}")
            hdr.flags |= FLAG_TAGON
            hdr.tagon_bank = BANK_A
            hdr.tagon_offset = offset
            hdr.tagon_units = units
        hdr.validate()
        t0 = api.now
        # wait for a free slot: re-read the consumer shadow while full
        while self._tx_producer - self._tx_known_consumer >= self.tx.depth:
            if not self.tx.enabled:
                raise ProtectionViolation(
                    f"tx queue {self.tx.index} was shut down"
                )
            raw = yield from api.load(self._tx_consumer_addr, 4)
            self._tx_known_consumer = int.from_bytes(raw, "big")
            if self._tx_producer - self._tx_known_consumer >= self.tx.depth:
                yield from api.compute(25)  # polling loop overhead
        slot = self._tx_slot_addr(self._tx_producer)
        yield from api.store(slot, encode_header(hdr) + payload)
        self._tx_producer += 1
        yield from api.store_u32(self._tx_producer_addr, self._tx_producer)
        self.sent += 1
        self.stats.accumulator("mp.basic.send_ns").add(api.now - t0)

    def send_to(
        self,
        api: "ApApi",
        node: int,
        queue: int,
        payload: bytes,
        reliable: bool = False,
        tagon: Optional[Tuple[int, int]] = None,
    ) -> Generator["Event", None, None]:
        """Send ``payload`` to logical ``queue`` of ``node``.

        Addresses with a translated vdst byte, or with a RAW header when
        machine assembly set ``ctrl.raw_addressing`` (see
        :func:`repro.niu.niu.needs_raw_addressing`).  ``reliable=True``
        goes through :meth:`send_reliable`, which cannot carry ``tagon``.
        """
        if reliable:
            if tagon is not None:
                raise ProgramError(
                    "reliable delivery cannot carry TagOn attachments")
            yield from self.send_reliable(api, node, payload,
                                          dst_queue=queue)
        elif self.node.ctrl.raw_addressing:
            yield from self.send(api, node, payload, tagon=tagon, raw=True,
                                 dst_queue=queue)
        else:
            yield from self.send(api, vdst_for(node, queue), payload,
                                 tagon=tagon)

    def send_reliable(
        self,
        api: "ApApi",
        dst_node: int,
        payload: bytes,
        dst_queue: int = 0,
    ) -> Generator["Event", None, None]:
        """Launch one message with firmware ack/retransmit delivery.

        The payload is handed to the *local* sP's go-back-N sender
        (:mod:`repro.firmware.reliable`), which sequences it, keeps a
        copy for retransmission, and releases it only on a cumulative
        ACK from ``dst_node``.  Blocks (via the ordinary tx-full poll)
        when the sP's retransmit window is saturated.  ``dst_node``
        travels in the request header; the hop into the local sP goes
        through :meth:`send_to`.
        """
        from repro.common.wire import REL_SEND
        from repro.firmware.reliable import REL_MAX_PAYLOAD

        if len(payload) > REL_MAX_PAYLOAD:
            raise ProgramError(
                f"reliable payload {len(payload)} exceeds {REL_MAX_PAYLOAD} "
                f"(the go-back-N header claims {MAX_PAYLOAD - REL_MAX_PAYLOAD}"
                f" bytes)"
            )
        req = REL_SEND.pack(dst_queue, dst_node, tail=payload)
        yield from self.send_to(api, self.node.node_id, SP_REL_TX_QUEUE, req)

    def stage_tagon(self, api: "ApApi", niu_offset: int, data: bytes
                    ) -> Generator["Event", None, Tuple[int, int]]:
        """Write TagOn data into user aSRAM; returns the (offset, units).

        ``niu_offset`` comes from ``node.niu.alloc_asram(...)``; data is
        padded to the next legal TagOn size (48 or 80 bytes).
        """
        if len(data) <= TAGON_SMALL_UNITS * TAGON_UNIT_BYTES:
            units = TAGON_SMALL_UNITS
        elif len(data) <= TAGON_LARGE_UNITS * TAGON_UNIT_BYTES:
            units = TAGON_LARGE_UNITS
        else:
            raise ProgramError(f"TagOn data of {len(data)} bytes is too large")
        padded = data.ljust(units * TAGON_UNIT_BYTES, b"\x00")
        yield from api.store(ASRAM_BASE + niu_offset, padded)
        return niu_offset, units

    # -- receive ------------------------------------------------------------------

    def poll(self, api: "ApApi"
             ) -> Generator["Event", None, Optional[Tuple[int, bytes]]]:
        """Non-blocking receive: one producer-shadow poll, then the entry."""
        raw = yield from api.load(self._rx_producer_addr, 4)
        if int.from_bytes(raw, "big") == self._rx_consumer:
            return None
        return (yield from self._take(api))

    def recv(self, api: "ApApi", poll_insns: int = 25
             ) -> Generator["Event", None, Tuple[int, bytes]]:
        """Blocking receive: spin on the producer shadow until a message.

        ``poll_insns`` models the polling loop's instruction overhead per
        iteration; without it the uncached pointer loads would hammer the
        memory bus far harder than a real 604 polling loop can.
        """
        t0 = api.now
        while True:
            # api.load hands back the aP's generator, so each poll
            # resumes straight into AppProcessor.access
            raw = yield from api.load(self._rx_producer_addr, 4)
            if int.from_bytes(raw, "big") != self._rx_consumer:
                break
            yield from api.compute(poll_insns)
        msg = yield from self._take(api)
        self.stats.accumulator("mp.basic.recv_ns").add(api.now - t0)
        return msg

    def _take(self, api: "ApApi"
              ) -> Generator["Event", None, Tuple[int, bytes]]:
        slot = self._rx_slot_addr(self._rx_consumer)
        raw = yield from api.load(slot, HEADER_BYTES)
        src, length, _flags = decode_rx_header(raw)
        payload = b""
        if length:
            payload = yield from api.load(slot + HEADER_BYTES, length)
        self._rx_consumer += 1
        yield from api.store_u32(self._rx_consumer_addr, self._rx_consumer)
        self.received += 1
        return src, payload
