"""CTRL: the core NIU ASIC (communication layer 2).

CTRL owns the protected multi-queue message abstraction:

* 16 hardware transmit and 16 hardware receive queues (buffer space in
  the dual-ported SRAMs, control state in here);
* pointer-triggered transmit launch and receive posting, with pointer
  shadows written back into SRAM so processors can poll cheaply;
* destination translation through the sSRAM table, with per-queue AND/OR
  protection masks, and queue shutdown + firmware interrupt on violation;
* receive-queue caching over a large logical namespace with a
  firmware-serviced miss/overflow queue;
* two local command queues and one remote command queue (processors live
  in :mod:`repro.niu.cmdproc`);
* the IBus — "the central communication path of the NIU" — which almost
  all data crosses at least once, modeled as an arbitrated resource;
* transmit-queue priority arbitration via system registers.

The aBIU/sBIU FPGAs and sP firmware drive CTRL through the narrow
interfaces below, mirroring the paper's "BIUs can request CTRL to write
data to SRAM, and ... update and read CTRL's internal state", which
"surprisingly ... provide access to most of the core functions".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.common.config import MachineConfig
from repro.common.errors import (
    NetworkError,
    ProtectionViolation,
    QueueError,
    TranslationError,
)
from repro.mem.sram import PORT_IBUS, DualPortedSRAM
from repro.net.packet import PRIORITY_HIGH, PRIORITY_LOW, Packet, PacketKind
from repro.niu.commands import Command, CommandQueue, REMOTE_CMDQ, REMOTE_CMDQ_HIGH
from repro.niu.msgformat import HEADER_BYTES, MsgHeader, decode_header, encode_rx_header
from repro.niu.queues import (BANK_A, BANK_S, QUEUE_RX, QUEUE_TX, FullPolicy,
                              QueueKind, QueueState)
from repro.niu.sysregs import SystemRegisters
from repro.niu.translation import RxQueueCache, TranslationTable
from repro.sim.resource import Resource
from repro.sim.store import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import NetworkPort
    from repro.sim.engine import Engine
    from repro.sim.events import Event
    from repro.sim.stats import StatsRegistry
    from repro.sim.trace import Tracer


class Ctrl:
    """The CTRL ASIC of one node's NIU."""

    def __init__(
        self,
        engine: "Engine",
        config: MachineConfig,
        node_id: int,
        asram: DualPortedSRAM,
        ssram: DualPortedSRAM,
        net_port: Optional["NetworkPort"],
        table_base: int,
        stats: "StatsRegistry",
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.node_id = node_id
        self.asram = asram
        self.ssram = ssram
        self.net_port = net_port
        self.stats = stats
        self.tracer = tracer
        self.name = f"ctrl{node_id}"
        ncfg = config.niu
        #: CTRL internal pipeline latency for one operation.
        self.op_ns = ncfg.ctrl_op_cycles * config.bus.cycle_ns

        #: IBus — arbitrated central data path.
        self.ibus = Resource(engine, 1, name=f"{self.name}.ibus")
        self.sysregs = SystemRegisters()
        self.table = TranslationTable(ssram, table_base, entries=256)
        #: set by machine assembly: peers are addressed with RAW headers
        #: instead of translated vdst bytes (see
        #: :func:`repro.niu.niu.needs_raw_addressing`).
        self.raw_addressing = False
        self.rx_cache = RxQueueCache(ncfg.n_hw_rx_queues, ncfg.n_logical_rx_queues)

        self.tx_queues: List[QueueState] = []
        self.rx_queues: List[QueueState] = []
        self.miss_queue = Store(engine, capacity=ncfg.missq_depth,
                                name=f"{self.name}.missq")
        self.cmdqs = [
            CommandQueue(engine, ncfg.cmdq_depth, name=f"{self.name}.cmdq{i}")
            for i in range(4)
        ]
        #: hardware FIFO between the IBus and the TxU (network side).
        self.tx_fifo = Store(engine, capacity=4, name=f"{self.name}.txfifo")

        #: set by the NIU assembly: aBIU master hook and sP event sink.
        self.abiu_issue: Optional[Callable[..., Any]] = None
        self.post_sp_event: Callable[[Tuple], None] = lambda ev: None
        #: clsSRAM (set when S-COMA support is configured).
        self.cls = None
        #: set by fault injection when this node dies: the NIU sinks all
        #: arriving traffic (the fabric sees a dead node, not a wedged one).
        self.crashed = False

        self._tx_work: Optional["Event"] = None
        self._rx_space: Dict[int, "Event"] = {}
        #: per-rx-queue landing serialization (see :meth:`deliver`).
        self._rx_landing: Dict[int, Resource] = {}
        self._tx_rr = 0
        self._started = False

        for q in range(ncfg.n_hw_tx_queues):
            self.sysregs.define(f"tx_priority.{q}", 0)
            self.sysregs.on_write(f"tx_priority.{q}", self._on_priority_write)

    # ------------------------------------------------------------------
    # queue installation (NIU assembly / firmware configuration path)
    # ------------------------------------------------------------------

    def add_tx_queue(self, bank: int, base: int, depth: int) -> QueueState:
        """Install the next hardware transmit queue over SRAM buffer space."""
        idx = len(self.tx_queues)
        if idx >= self.config.niu.n_hw_tx_queues:
            raise QueueError("all hardware tx queues are in use")
        q = QueueState(QUEUE_TX, idx, bank, base, depth)
        q.shadow_offset = None
        self.tx_queues.append(q)
        return q

    def add_rx_queue(self, bank: int, base: int, depth: int,
                     logical_id: int) -> QueueState:
        """Install the next hardware receive queue, bound to a logical id."""
        idx = len(self.rx_queues)
        if idx >= self.config.niu.n_hw_rx_queues:
            raise QueueError("all hardware rx queues are in use")
        q = QueueState(QUEUE_RX, idx, bank, base, depth)
        q.shadow_offset = None
        q.logical_id = logical_id
        self.rx_queues.append(q)
        self.rx_cache.bind(logical_id, idx)
        return q

    # ------------------------------------------------------------------
    # timing primitives
    # ------------------------------------------------------------------

    def _bank(self, bank: int) -> DualPortedSRAM:
        return self.asram if bank == BANK_A else self.ssram

    def sram_read(self, bank: int, offset: int, size: int
                  ) -> Generator["Event", None, bytes]:
        """Read SRAM across the IBus (CTRL-mediated, timed)."""
        if not self.ibus.try_acquire():
            yield self.ibus.request()
        try:
            yield self.op_ns
            data = yield from self._bank(bank).read(PORT_IBUS, offset, size)
        finally:
            self.ibus.release()
        return data

    def sram_read_view(self, bank: int, offset: int, size: int
                       ) -> Generator["Event", None, memoryview]:
        """Zero-copy :meth:`sram_read`: same IBus arbitration and timing,
        returns a read-only view of the bank (valid until the range is
        overwritten — materialize before it can be recycled)."""
        if not self.ibus.try_acquire():
            yield self.ibus.request()
        try:
            yield self.op_ns
            data = yield from self._bank(bank).read_view(PORT_IBUS, offset, size)
        finally:
            self.ibus.release()
        return data

    def sram_write(self, bank: int, offset: int, data: bytes
                   ) -> Generator["Event", None, None]:
        """Write SRAM across the IBus (CTRL-mediated, timed)."""
        if not self.ibus.try_acquire():
            yield self.ibus.request()
        try:
            yield self.op_ns
            yield from self._bank(bank).write(PORT_IBUS, offset, data)
        finally:
            self.ibus.release()

    def sram_write_parts(self, bank: int, offset: int, parts: Tuple[bytes, ...]
                         ) -> Generator["Event", None, None]:
        """Scatter-gather :meth:`sram_write`: timing-identical to writing
        the concatenation, without building it."""
        if not self.ibus.try_acquire():
            yield self.ibus.request()
        try:
            yield self.op_ns
            yield from self._bank(bank).write_parts(PORT_IBUS, offset, parts)
        finally:
            self.ibus.release()

    # ------------------------------------------------------------------
    # pointer interface (driven by BIU-decoded bus operations)
    # ------------------------------------------------------------------

    def tx_producer_update(self, idx: int, new: int) -> None:
        """A composed message is ready: advance the producer, wake transmit."""
        q = self._tx(idx)
        if not q.enabled:
            raise ProtectionViolation(f"txQ{idx} is shut down")
        q.advance_producer(new)
        self._kick_tx()

    def rx_consumer_update(self, idx: int, new: int) -> None:
        """The processor drained entries: free buffer space."""
        q = self._rx(idx)
        q.advance_consumer(new)
        ev = self._rx_space.pop(idx, None)
        if ev is not None and not ev.triggered:
            ev.succeed()

    def read_pointer(self, kind: QueueKind, idx: int, which: str) -> int:
        """Immediate pointer read (sP immediate interface; BIUs use shadows)."""
        q = self._tx(idx) if kind is QUEUE_TX else self._rx(idx)
        return q.producer if which == "producer" else q.consumer

    def _tx(self, idx: int) -> QueueState:
        if not (0 <= idx < len(self.tx_queues)):
            raise QueueError(f"no tx queue {idx}")
        return self.tx_queues[idx]

    def _rx(self, idx: int) -> QueueState:
        if not (0 <= idx < len(self.rx_queues)):
            raise QueueError(f"no rx queue {idx}")
        return self.rx_queues[idx]

    def _on_priority_write(self, name: str, value: int) -> None:
        idx = int(name.rsplit(".", 1)[1])
        if idx < len(self.tx_queues):
            self.tx_queues[idx].priority = value

    # ------------------------------------------------------------------
    # transmit engine
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn CTRL's internal engines (tx arbiter, TxU, rx pumps)."""
        if self._started:
            return
        self._started = True
        self.engine.process(self._tx_engine(), name=f"{self.name}.tx", daemon=True)
        self.engine.process(self._txu(), name=f"{self.name}.txu", daemon=True)
        if self.net_port is not None:
            for pri in range(self.config.network.priorities):
                self.engine.process(self._rx_pump(pri), name=f"{self.name}.rx{pri}",
                                    daemon=True)

    def _kick_tx(self) -> None:
        ev = self._tx_work
        if ev is not None and not ev.triggered:
            ev.succeed()

    def _pick_tx(self) -> Optional[QueueState]:
        """Priority arbitration with round-robin among equals."""
        best: Optional[QueueState] = None
        n = len(self.tx_queues)
        for k in range(n):
            q = self.tx_queues[(self._tx_rr + k) % n]
            if q.enabled and not q.is_empty:
                if best is None or q.priority < best.priority:
                    best = q
        if best is not None:
            self._tx_rr = (best.index + 1) % max(1, n)
        return best

    def _tx_engine(self):
        while True:
            q = self._pick_tx()
            if q is None:
                self._tx_work = self.engine.event(name=f"{self.name}.txwork")
                yield self._tx_work
                self._tx_work = None
                continue
            yield self.op_ns
            yield from self._send_from_queue(q)

    def _send_from_queue(self, q: QueueState) -> Generator["Event", None, None]:
        tr = self.tracer
        span = (tr.span("niu.tx", source=self.name, node=self.node_id,
                        track=f"txq{q.index}")
                if tr is not None and tr.active else None)
        slot = q.slot_offset(q.consumer)
        raw = yield from self.sram_read_view(q.bank, slot, HEADER_BYTES)
        try:
            hdr = decode_header(raw)
            hdr.validate()
        except QueueError as exc:
            self._violation(q, f"malformed header: {exc}")
            if span is not None:
                span.end(violation=True)
            return
        payload = b""
        if hdr.length:
            # Zero-copy: the payload rides as a view of the queue slot all
            # the way to Packet construction (where it materializes) or to
            # the loopback landing store.  Safe because the slot is not
            # recycled until advance_consumer below, after _transmit.
            payload = yield from self.sram_read_view(
                q.bank, slot + HEADER_BYTES, hdr.length
            )
        yield from self._transmit(q, hdr, payload)
        if q.enabled:
            q.advance_consumer(q.consumer + 1)
            q.messages += 1
            yield from self._shadow(q)
        if span is not None:
            span.end(bytes=hdr.length)

    def _transmit(
        self, q: QueueState, hdr: MsgHeader, payload: bytes
    ) -> Generator["Event", None, None]:
        """Translate, apply protection, pick up TagOn, and emit.

        Shared by the transmit engine and the command-stream send path
        (CmdSendMessage), because the hardware genuinely shares it.
        """
        if hdr.is_raw:
            if not q.allow_raw:
                self._violation(q, "raw message from a translated queue")
                return
            dst_node, dst_queue, pri = hdr.vdst, hdr.dst_queue, PRIORITY_LOW
        elif not q.translate:
            dst_node, dst_queue, pri = hdr.vdst, hdr.dst_queue, PRIORITY_LOW
        else:
            index = q.translate_vdst(hdr.vdst)
            try:
                # the table entry crosses the IBus like any SRAM read;
                # timing only (lookup below decodes the same bytes), so a
                # view avoids the copy entirely
                entry_raw = yield from self.sram_read_view(
                    BANK_S, self.table._offset(index), 8
                )
                del entry_raw
                entry = self.table.lookup(index)
            except TranslationError as exc:
                self._violation(q, str(exc))
                return
            dst_node, dst_queue, pri = entry.dst_node, entry.dst_queue, entry.priority
        if hdr.has_tagon:
            tag = yield from self.sram_read_view(
                hdr.tagon_bank, hdr.tagon_offset, hdr.tagon_bytes
            )
            # gathering two SRAM regions into one payload is the one
            # unavoidable copy on the TagOn path (join accepts views)
            payload = b"".join((payload, tag))
        hdr.src_node = self.node_id
        self.stats.counter(f"{self.name}.msgs_sent").incr()
        yield from self._emit_data(dst_node, dst_queue, payload, pri)

    def _emit_data(
        self, dst_node: int, dst_queue: int, payload: bytes, priority: int
    ) -> Generator["Event", None, None]:
        if dst_node == self.node_id:
            # CTRL loopback: no network involvement
            yield self.op_ns
            yield from self.deliver(dst_queue, self.node_id, payload)
            return
        route = self._route_or_drop(dst_node)
        if route is None:
            return
        pkt = Packet(
            PacketKind.DATA,
            src=self.node_id,
            dst=dst_node,
            dst_queue=dst_queue,
            payload=payload,
            priority=priority,
            route=route,
            header_bytes=self.config.network.header_bytes,
        )
        yield self.tx_fifo.put(pkt)

    def emit_command(
        self, dst_node: int, command: Command, priority: int = PRIORITY_LOW
    ) -> Generator["Event", None, None]:
        """Send a command to a (possibly remote) NIU's remote command queue."""
        if dst_node == self.node_id:
            yield self.op_ns
            which = REMOTE_CMDQ_HIGH if priority == PRIORITY_HIGH else REMOTE_CMDQ
            yield self.cmdqs[which].enqueue(command)
            return
        route = self._route_or_drop(dst_node)
        if route is None:
            return
        pkt = Packet(
            PacketKind.COMMAND,
            src=self.node_id,
            dst=dst_node,
            dst_queue=0,
            payload=b"",
            priority=priority,
            route=route,
            command=command,
            header_bytes=self.config.network.header_bytes,
        )
        yield self.tx_fifo.put(pkt)

    def emit_sync(self, tag) -> Generator["Event", None, None]:
        """Inject one sync-tagged packet (in-network computing request).

        Tagged packets carry no source route — the first switch's
        combining stage consumes them (see :mod:`repro.net.combine`) —
        and travel high priority so congested bulk traffic cannot delay
        a combining window.  They share the TX FIFO with ordinary
        traffic: a sync request still queues behind the data packets the
        aP already posted, exactly like the real NIU's single injection
        port.
        """
        pkt = Packet(
            PacketKind.DATA,
            src=self.node_id,
            dst=self.node_id,
            dst_queue=tag.reply_queue,
            payload=tag.pack(),
            priority=PRIORITY_HIGH,
            header_bytes=self.config.network.header_bytes,
            sync=tag,
        )
        self.stats.counter(f"{self.name}.sync_injects").incr()
        yield self.tx_fifo.put(pkt)

    def _route(self, dst_node: int) -> List[int]:
        assert self.net_port is not None, "no network attached"
        return self.net_port.network.route(self.node_id, dst_node)

    def _route_or_drop(self, dst_node: int) -> Optional[List[int]]:
        """Route to ``dst_node``, or ``None`` when downed links have
        partitioned it away — the message is silently lost exactly like a
        packet on a dead wire (the reliability firmware's problem), but
        only when faults are actually in play; a healthy network still
        raises on nonsense destinations."""
        net = self.net_port.network
        try:
            return self._route(dst_node)
        except NetworkError:
            if not net.down_links:
                raise
            self.stats.counter(f"{self.name}.tx_unroutable").incr()
            return None

    def _txu(self):
        """TxU: drain the hardware FIFO into the network."""
        while True:
            pkt = yield self.tx_fifo.get()
            yield from self.net_port.inject(pkt)

    def _violation(self, q: QueueState, reason: str) -> None:
        """Protection response: shut the queue down, interrupt firmware."""
        q.shutdown()
        self.stats.counter(f"{self.name}.protection_violations").incr()
        self.post_sp_event(("protection", q.kind.value, q.index, reason))

    # ------------------------------------------------------------------
    # receive side
    # ------------------------------------------------------------------

    def _rx_pump(self, priority: int):
        """RxU: drain one network priority into queues / the remote cmdq."""
        while True:
            pkt: Packet = yield self.net_port.receive(priority)
            yield self.op_ns
            if self.crashed:
                self._rx_drop(pkt.dst_queue, "crashed")
                continue
            if not pkt.verify_checksum():
                # wire corruption: detected here, counted, dropped.  The
                # real Arctic CRC-checks per packet; recovery is firmware's
                # job (the ack/retransmit protocol sees it as a loss).
                self._rx_drop(pkt.dst_queue, "corrupt")
                continue
            if pkt.kind is PacketKind.COMMAND:
                if pkt.command is not None:
                    pkt.command._src_node = pkt.src  # type: ignore[attr-defined]
                which = (REMOTE_CMDQ_HIGH if priority == PRIORITY_HIGH
                         else REMOTE_CMDQ)
                yield self.cmdqs[which].enqueue(pkt.command)
            else:
                yield from self.deliver(pkt.dst_queue, pkt.src, pkt.payload)

    def deliver(
        self, logical_q: int, src_node: int, payload: bytes, flags: int = 0
    ) -> Generator["Event", None, None]:
        """Post one message into a logical receive queue.

        Performs the cache-tag-style residency lookup; misses and
        overflow divert to the firmware-serviced miss queue.
        """
        tr = self.tracer
        span = (tr.span("niu.rx", source=self.name, node=self.node_id,
                        track=f"rxq{logical_q}", src=src_node)
                if tr is not None and tr.active else None)
        slot = self.rx_cache.lookup(logical_q)
        if slot is None:
            yield from self._to_missq(("miss", logical_q, src_node,
                                       bytes(payload), flags))
            if span is not None:
                span.end(outcome="miss")
            return
        q = self.rx_queues[slot]
        if not q.enabled:
            # protection shut this queue down; arrivals bounce until
            # software re-arms it
            q.drops += 1
            self._rx_drop(logical_q, "shutdown")
            if span is not None:
                span.end(outcome="shutdown")
            return
        # One landing engine per queue: from the fullness check to the
        # producer advance, exactly one delivery may be in flight.  Two
        # deliverers woken by the same freed slot would otherwise both
        # read q.producer before either advances it — one message lands
        # on top of the other and the next slot exposes a stale entry
        # from the previous ring lap.
        lock = self._rx_landing.get(slot)
        if lock is None:
            lock = self._rx_landing[slot] = Resource(
                self.engine, 1, name=f"{self.name}.rxland{slot}")
        if not lock.try_acquire():
            yield lock.request()
        try:
            while q.is_full:
                if q.full_policy is FullPolicy.DROP:
                    q.drops += 1
                    self._rx_drop(logical_q, "full")
                    if span is not None:
                        span.end(outcome="drop")
                    return
                if q.full_policy is FullPolicy.DIVERT:
                    yield from self._to_missq(
                        ("overflow", logical_q, src_node, bytes(payload),
                         flags)
                    )
                    if span is not None:
                        span.end(outcome="overflow")
                    return
                # BLOCK: wait for the consumer to free space (can deadlock
                # the network — the paper says as much; that is the
                # experiment)
                ev = self._rx_space.get(slot)
                if ev is None or ev.triggered:
                    ev = self.engine.event(name=f"{self.name}.rxspace{slot}")
                    self._rx_space[slot] = ev
                yield ev
            # Landing store: scatter-gather [header, payload] straight into
            # the queue slot — the payload (possibly still a view of the
            # sender's SRAM on the loopback path) is copied exactly here and
            # nowhere earlier.  Timing-identical to writing the
            # concatenation.
            header = encode_rx_header(src_node, len(payload), flags)
            yield from self.sram_write_parts(
                q.bank, q.slot_offset(q.producer), (header, payload)
            )
            q.advance_producer(q.producer + 1)
        finally:
            lock.release()
        q.messages += 1
        self.stats.counter(f"{self.name}.msgs_delivered").incr()
        yield from self._shadow(q)
        if span is not None:
            span.end(bytes=len(payload))
        if q.interrupt_on_arrival:
            self.post_sp_event(("rxmsg", slot, q.logical_id))

    def _rx_drop(self, logical_q: int, reason: str) -> None:
        """Account one rx drop: which logical queue lost it, and why
        (``full`` / ``shutdown`` / ``corrupt`` / ``crashed``)."""
        self.stats.counter(f"{self.name}.rx_drops.q{logical_q}.{reason}").incr()
        tr = self.tracer
        if tr is not None and tr.active:
            tr.instant("niu.rx_drop", source=self.name, node=self.node_id,
                       track=f"rxq{logical_q}", reason=reason)

    def _to_missq(self, item: Tuple) -> Generator["Event", None, None]:
        self.stats.counter(f"{self.name}.rx_missq").incr()
        yield self.miss_queue.put(item)
        self.post_sp_event(("missq",))

    # ------------------------------------------------------------------
    # pointer shadows
    # ------------------------------------------------------------------

    def _shadow(self, q: QueueState) -> Generator["Event", None, None]:
        """Write the queue's pointers back into SRAM for cheap polling."""
        if q.shadow_offset is None:
            return
        raw = (q.producer & 0xFFFFFFFF).to_bytes(4, "big") + (
            q.consumer & 0xFFFFFFFF
        ).to_bytes(4, "big")
        yield from self.sram_write(q.bank, q.shadow_offset, raw)

    def read_shadow(self, q: QueueState) -> Tuple[int, int]:
        """Untimed decode of a queue's SRAM pointer shadow (BIU serves the
        actual bus operation and charges its timing)."""
        if q.shadow_offset is None:
            raise QueueError(f"queue {q!r} has no shadow")
        raw = self._bank(q.bank).peek(q.shadow_offset, 8)
        return int.from_bytes(raw[:4], "big"), int.from_bytes(raw[4:], "big")
