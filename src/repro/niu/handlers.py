"""Default aBIU state machines (the shipped "FPGA program").

Each class models one of the finite state machines the default StarT-
Voyager aBIU configuration implements: queue-pointer decoding, SRAM
message-buffer windows, Express transmit/receive, system registers, and
the NUMA and S-COMA shared-memory checks.  Replacing any of them through
:meth:`repro.niu.abiu.ABiu.install` is the model's equivalent of
reprogramming the FPGA.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional, Tuple

from repro.bus.ops import (OP_READ, OP_READ_LINE, OP_WRITE, OP_WRITE_LINE,
                           BusTransaction)
from repro.bus.snoop import SNOOP_CLAIM, SNOOP_OK, SNOOP_RETRY, SnoopResult
from repro.common.errors import ProtectionViolation, QueueError, SimulationError
from repro.mem.address import Region
from repro.mem.sram import PORT_BUS, DualPortedSRAM
from repro.niu.abiu import BusHandler
from repro.niu.clssram import ClsSram
from repro.niu.msgformat import (
    FLAG_EXPRESS,
    HEADER_BYTES,
    MsgHeader,
    encode_header,
)
from repro.niu.queues import QUEUE_RX, QUEUE_TX, QueueKind, QueueState
from repro.sim.store import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.ctrl import Ctrl
    from repro.sim.events import Event

# ----------------------------------------------------------------------
# queue pointer window
# ----------------------------------------------------------------------

#: per-queue stride and slot offsets inside the pointer window.
PTR_STRIDE = 32
PTR_TX_PRODUCER = 0
PTR_TX_CONSUMER = 8
PTR_RX_PRODUCER = 16
PTR_RX_CONSUMER = 24


def pointer_offset(kind: QueueKind, index: int, which: str) -> int:
    """Window offset of one pointer register (library-layer helper)."""
    base = index * PTR_STRIDE
    if kind is QUEUE_TX:
        return base + (PTR_TX_PRODUCER if which == "producer" else PTR_TX_CONSUMER)
    return base + (PTR_RX_PRODUCER if which == "producer" else PTR_RX_CONSUMER)


class PointerWindowHandler(BusHandler):
    """Decodes pointer reads/writes: "all information for the pointer
    update is encoded in the *address* of the operation".

    Writes of the transmit producer / receive consumer become CTRL pointer
    updates; reads are served from the SRAM pointer shadows so polling
    never disturbs CTRL.
    """

    handler_name = "ptr-window"

    def __init__(self, ctrl: "Ctrl", region: Region) -> None:
        self.ctrl = ctrl
        self.region = region
        #: address -> decoded register; a polled pointer decodes once
        self._decoded: Dict[int, Tuple[QueueKind, int, str, bool]] = {}
        #: address -> (bank, offset) of the SRAM pointer shadow a read of
        #: that register is served from, filled on its first read
        self._shadows: Dict[int, Tuple[DualPortedSRAM, int]] = {}

    def _decode(self, addr: int) -> Tuple[QueueKind, int, str, bool]:
        decoded = self._decoded.get(addr)
        if decoded is None:
            decoded = self._decoded[addr] = self._decode_slot(addr)
        return decoded

    def _decode_slot(self, addr: int) -> Tuple[QueueKind, int, str, bool]:
        off = addr - self.region.base
        index, slot = divmod(off, PTR_STRIDE)
        if slot in (PTR_TX_PRODUCER, PTR_TX_CONSUMER):
            kind = QUEUE_TX
            which = "producer" if slot == PTR_TX_PRODUCER else "consumer"
            writable = slot == PTR_TX_PRODUCER
        elif slot in (PTR_RX_PRODUCER, PTR_RX_CONSUMER):
            kind = QUEUE_RX
            which = "producer" if slot == PTR_RX_PRODUCER else "consumer"
            writable = slot == PTR_RX_CONSUMER
        else:
            raise QueueError(f"pointer window: bad slot offset {slot}")
        return kind, index, which, writable

    def decide(self, txn: BusTransaction) -> SnoopResult:
        if txn.op in (OP_READ, OP_WRITE):
            return SNOOP_CLAIM
        return SNOOP_OK

    def _owner_ok(self, q, txn: BusTransaction) -> bool:
        """Queue-ownership check: pid 0 (kernel) and unowned queues pass.

        The aP tags its bus operations with the issuing process id; a
        pointer touch by the wrong process is a protection violation —
        the queue shuts down and firmware is interrupted, exactly the
        §4 response ("the queue is shutdown and firmware/OS is notified
        by an interrupt").
        """
        pid = txn.tag if isinstance(txn.tag, int) else 0
        if q.owner_pid == 0 or pid == 0 or pid == q.owner_pid:
            return True
        self.ctrl._violation(
            q, f"pointer access by pid {pid}, queue owned by {q.owner_pid}"
        )
        return False

    def serve(self, txn: BusTransaction
              ) -> Generator["Event", None, Optional[bytes]]:
        ctrl = self.ctrl
        shadow = self._shadows.get(txn.addr) if txn.op is OP_READ else None
        if shadow is not None:
            # a pointer poll: this register decoded, and its shadow was
            # found, on an earlier read
            yield ctrl.op_ns
            bank, off = shadow
            raw = yield from bank.read(PORT_BUS, off, 4)
            if txn.size == 4:
                return raw
            return raw[: txn.size] + b"\x00" * max(0, txn.size - 4)
        kind, index, which, writable = self._decode(txn.addr)
        yield ctrl.op_ns
        if txn.op is OP_WRITE:
            if not writable:
                raise QueueError(
                    f"pointer window: {kind.value}{index}.{which} is read-only"
                )
            q = ctrl.tx_queues[index] if kind is QUEUE_TX \
                else ctrl.rx_queues[index]
            if not self._owner_ok(q, txn):
                return None  # hardware drops the intruding write
            value = int.from_bytes(txn.data[:4], "big")  # type: ignore[index]
            try:
                if kind is QUEUE_TX:
                    ctrl.tx_producer_update(index, value)
                else:
                    ctrl.rx_consumer_update(index, value)
            except ProtectionViolation:
                # hardware drops writes to a shut-down queue; firmware was
                # already interrupted when the queue went down
                pass
            return None
        # reads come from the SRAM shadow like any SRAM access
        q = ctrl.tx_queues[index] if kind is QUEUE_TX else ctrl.rx_queues[index]
        if q.shadow_offset is None:
            raw = ctrl.read_pointer(kind, index, which).to_bytes(4, "big")
        else:
            bank = ctrl._bank(q.bank)
            off = q.shadow_offset + (0 if which == "producer" else 4)
            self._shadows[txn.addr] = (bank, off)
            raw = yield from bank.read(PORT_BUS, off, 4)
        return raw[: txn.size] + b"\x00" * max(0, txn.size - 4)


# ----------------------------------------------------------------------
# SRAM message-buffer window
# ----------------------------------------------------------------------

class SramWindowHandler(BusHandler):
    """Maps an SRAM bank into the aP's address space.

    Serves single-beat and line-burst operations against the bank's
    bus-side port — this is the window through which Basic messages are
    composed and read ("regions of the dual-ported SRAM are mapped into
    the user's address space").
    """

    handler_name = "sram-window"

    def __init__(self, sram: DualPortedSRAM, region: Region) -> None:
        self.sram = sram
        self.region = region

    def decide(self, txn: BusTransaction) -> SnoopResult:
        if txn.op in (OP_READ, OP_WRITE, OP_READ_LINE, OP_WRITE_LINE):
            return SNOOP_CLAIM
        return SNOOP_OK  # coherence ops mean nothing to SRAM

    def serve(self, txn: BusTransaction
              ) -> Generator["Event", None, Optional[bytes]]:
        offset = txn.addr - self.region.base
        if txn.op.is_write:
            yield from self.sram.write(PORT_BUS, offset, txn.data)  # type: ignore[arg-type]
            return None
        return (yield from self.sram.read(PORT_BUS, offset, txn.size))


# ----------------------------------------------------------------------
# Express messages
# ----------------------------------------------------------------------

#: express window address encoding: destination and one data byte live in
#: the *address* of the store ("part of the address of a transmit store
#: encodes the logical destination and a byte of data").
EXPRESS_VDST_SHIFT = 11
EXPRESS_BYTE_SHIFT = 3
EXPRESS_WINDOW_BYTES = 256 << EXPRESS_VDST_SHIFT

#: canonical empty message returned when the receive queue is dry.
EXPRESS_EMPTY = bytes(8)
EXPRESS_VALID_FLAG = 0x80


class ExpressTxHandler(BusHandler):
    """One uncached store composes *and* launches an Express message.

    The BIU captures the address bits (vdst + one byte) and four data-bus
    bytes, writes the entry into SRAM via the IBus with a CTRL command,
    and updates the producer pointer — all behind the completed bus
    operation, so the aP sees single-store cost.
    """

    handler_name = "express-tx"

    def __init__(self, ctrl: "Ctrl", region: Region, queue: QueueState) -> None:
        self.ctrl = ctrl
        self.region = region
        self.queue = queue
        #: captured stores waiting for the background composer (bounded —
        #: a full FIFO retries the aP's store, as real capture logic must).
        self.fifo = Store(ctrl.engine, capacity=8, name=f"extx{queue.index}")
        #: captures accepted but whose producer bump has not landed yet;
        #: the admission check must count them or the queue overruns.
        self._uncommitted = 0
        self.retried_full = 0
        ctrl.engine.process(self._composer(), name=f"extx{queue.index}.composer",
                            daemon=True)

    def decide(self, txn: BusTransaction) -> SnoopResult:
        if txn.op is not OP_WRITE:
            return SNOOP_OK
        pid = txn.tag if isinstance(txn.tag, int) else 0
        if self.queue.owner_pid and pid and pid != self.queue.owner_pid:
            # wrong process: same §4 response as the pointer window
            self.ctrl._violation(
                self.queue,
                f"express send by pid {pid}, queue owned by "
                f"{self.queue.owner_pid}",
            )
            return SNOOP_CLAIM  # complete the store, drop the message
        if not self.queue.enabled:
            return SNOOP_CLAIM  # shut down: swallow silently
        if self.fifo.is_full or self.queue.space <= self._uncommitted:
            self.retried_full += 1
            return SNOOP_RETRY
        return SNOOP_CLAIM

    def serve(self, txn: BusTransaction
              ) -> Generator["Event", None, Optional[bytes]]:
        yield self.ctrl.op_ns
        if not self.queue.enabled:
            return None  # shut-down queue swallows the store
        off = txn.addr - self.region.base
        vdst = (off >> EXPRESS_VDST_SHIFT) & 0xFF
        extra = (off >> EXPRESS_BYTE_SHIFT) & 0xFF
        # txn.data may be a zero-copy view; materialize for the FIFO item
        data = bytes(txn.data or b"").ljust(4, b"\x00")[:4]
        self._uncommitted += 1
        self.fifo.try_put((vdst, bytes([extra]) + data))
        return None

    def _composer(self):
        ctrl = self.ctrl
        q = self.queue
        while True:
            vdst, payload = yield self.fifo.get()
            hdr = MsgHeader(flags=FLAG_EXPRESS, vdst=vdst, length=len(payload))
            slot = q.slot_offset(q.producer)
            yield from ctrl.sram_write(
                q.bank, slot, encode_header(hdr) + payload
            )
            try:
                ctrl.tx_producer_update(q.index, q.producer + 1)
            except ProtectionViolation:
                pass  # the queue was shut down mid-compose: drop
            self._uncommitted -= 1


class ExpressRxHandler(BusHandler):
    """One uncached load receives an Express message and frees its slot.

    Returns the canonical empty message when nothing has arrived, else a
    valid-flagged byte, the source node, and the five payload bytes.
    """

    handler_name = "express-rx"

    def __init__(self, ctrl: "Ctrl", region: Region, queue: QueueState) -> None:
        self.ctrl = ctrl
        self.region = region
        self.queue = queue
        self.received = 0
        self.empties = 0

    def decide(self, txn: BusTransaction) -> SnoopResult:
        if txn.op is OP_READ:
            return SNOOP_CLAIM
        return SNOOP_OK

    def serve(self, txn: BusTransaction
              ) -> Generator["Event", None, Optional[bytes]]:
        ctrl = self.ctrl
        q = self.queue
        yield ctrl.op_ns
        if q.is_empty:
            self.empties += 1
            return EXPRESS_EMPTY[: txn.size]
        slot = q.slot_offset(q.consumer)
        bank = ctrl._bank(q.bank)
        entry = yield from bank.read(PORT_BUS, slot, HEADER_BYTES + 5)
        src, length = entry[1], entry[3]
        payload = entry[HEADER_BYTES : HEADER_BYTES + min(5, length)].ljust(5, b"\x00")
        ctrl.rx_consumer_update(q.index, q.consumer + 1)
        self.received += 1
        out = bytes([EXPRESS_VALID_FLAG, src]) + payload + b"\x00"
        return out[: txn.size]


# ----------------------------------------------------------------------
# system registers
# ----------------------------------------------------------------------

class SysregHandler(BusHandler):
    """Memory-mapped CTRL system registers (trusted window)."""

    handler_name = "sysregs"

    def __init__(self, ctrl: "Ctrl", region: Region,
                 regmap: Dict[int, str], trusted: bool = True) -> None:
        self.ctrl = ctrl
        self.region = region
        self.regmap = regmap  # window offset -> register name
        self.trusted = trusted

    def decide(self, txn: BusTransaction) -> SnoopResult:
        if txn.op in (OP_READ, OP_WRITE):
            return SNOOP_CLAIM
        return SNOOP_OK

    def serve(self, txn: BusTransaction
              ) -> Generator["Event", None, Optional[bytes]]:
        ctrl = self.ctrl
        name = self.regmap.get(txn.addr - self.region.base)
        if name is None:
            raise QueueError(f"sysreg window: unmapped offset {txn.addr:#x}")
        yield ctrl.op_ns
        if txn.op is OP_WRITE:
            value = int.from_bytes(txn.data[:4], "big")  # type: ignore[index]
            ctrl.sysregs.write(name, value, trusted=self.trusted)
            return None
        value = ctrl.sysregs.read(name)
        return value.to_bytes(4, "big")[: txn.size].ljust(txn.size, b"\x00")


# ----------------------------------------------------------------------
# NUMA
# ----------------------------------------------------------------------

class NumaHandler(BusHandler):
    """The default NUMA state machine.

    Loads: retried "until the sP explicitly stops the retries" — the
    first miss posts the operation into the aBIU→sBIU queue; firmware
    fetches remote data and calls :meth:`supply`; the next retry is
    claimed and served from the capture buffer.  Stores: the data is
    captured and the bus operation completes immediately (posted write);
    the forwarded operation reaches firmware in order through the same
    queue, so a later load of the same address observes the write.
    """

    handler_name = "numa"

    def __init__(self, ctrl: "Ctrl", region: Region) -> None:
        self.ctrl = ctrl
        self.region = region
        self._pending: Dict[int, bool] = {}
        self._ready: Dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0
        self.retries = 0

    def decide(self, txn: BusTransaction) -> SnoopResult:
        if txn.op is OP_WRITE:
            return SNOOP_CLAIM
        if txn.op is OP_READ:
            key = txn.addr
            if key in self._ready:
                return SNOOP_CLAIM
            self.retries += 1
            if key not in self._pending:
                self._pending[key] = True
                self.ctrl.post_sp_event(("numa_read", txn.addr, txn.size))
            return SNOOP_RETRY
        raise SimulationError(
            f"NUMA region accessed with {txn.op.value}; map it uncached"
        )

    def serve(self, txn: BusTransaction
              ) -> Generator["Event", None, Optional[bytes]]:
        yield self.ctrl.op_ns
        if txn.op is OP_WRITE:
            self.writes += 1
            self.ctrl.post_sp_event(("numa_write", txn.addr, bytes(txn.data)))  # type: ignore[arg-type]
            return None
        self.reads += 1
        data = self._ready.pop(txn.addr)
        self._pending.pop(txn.addr, None)
        return data[: txn.size].ljust(txn.size, b"\x00")

    def supply(self, addr: int, data: bytes) -> None:
        """Firmware delivers load data; the next retry completes."""
        self._ready[addr] = data


# ----------------------------------------------------------------------
# S-COMA
# ----------------------------------------------------------------------

class ScomaHandler(BusHandler):
    """The S-COMA cache-line-state check.

    "The clsSRAM bits are read for every aP bus operation and passed to
    the aBIU ... The aBIU determines what action, if any, should be taken"
    via the (bus op × state) table.  The data itself is served by plain
    DRAM — the covered region *is* local DRAM used as an L3 cache — so
    this handler never claims; it only retries and pokes firmware.
    """

    handler_name = "scoma"

    def __init__(self, ctrl: "Ctrl", cls: ClsSram, line_bytes: int) -> None:
        self.ctrl = ctrl
        self.cls = cls
        self.line_bytes = line_bytes

    def decide(self, txn: BusTransaction) -> SnoopResult:
        line_base = txn.addr & ~(self.line_bytes - 1)
        action = self.cls.check(txn.op, line_base)
        if action.pass_to_sp:
            self.ctrl.post_sp_event(("scoma_miss", txn.op, line_base))
        return SNOOP_RETRY if action.retry else SNOOP_OK

    def serve(self, txn: BusTransaction):  # pragma: no cover - never claims
        raise SimulationError("ScomaHandler never claims transactions")
        yield  # unreachable; keeps this a generator
