"""Command-queue processors and the block-operation units.

Three :class:`CommandProcessor`\\ s drain CTRL's command queues — two
local (sP/sBIU-fed) and one remote (network-fed).  Every command in a
queue is "issued and completed in order", *except* block operations,
which are handed to the two dedicated block units and complete
asynchronously — exactly the ordering contract §4 of the paper specifies.

The block units are the paper's performance-critical hardware: the
**block-read unit** streams up to one aligned page of aP DRAM into SRAM
by issuing bus operations through the aBIU, and the **block-transmit
unit** carves an SRAM region into command packets that write themselves
into the destination's DRAM through its remote command queue.  Chaining
the two (``CmdBlockTx.after``) gives the fully-hardware DMA of
Block Transfer Approach 3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.bus.ops import (OP_READ, OP_READ_LINE, OP_WRITE, OP_WRITE_LINE,
                           BusTransaction)
from repro.common.errors import FirmwareError, QueueError
from repro.niu.commands import (
    CmdBlockRead,
    CmdBlockTx,
    CmdBusOp,
    CmdCall,
    CmdCopySram,
    CmdForward,
    CmdNotify,
    CmdReadDram,
    CmdSendMessage,
    CmdSetClsState,
    CmdWriteDram,
    CmdWriteDramFromSram,
    Command,
)
from repro.niu.msgformat import MAX_PAYLOAD
from repro.sim.store import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.ctrl import Ctrl
    from repro.sim.events import Event

#: a block-transmit data chunk: 2.5 cache lines, the large TagOn size —
#: with the 8-byte command word it exactly fills one 96-byte packet.
BLOCK_TX_CHUNK = 80


class CommandProcessor:
    """In-order executor for one CTRL command queue."""

    def __init__(self, ctrl: "Ctrl", which: int) -> None:
        self.ctrl = ctrl
        self.which = which
        self.queue = ctrl.cmdqs[which]
        self.executed = 0

    def start(self) -> None:
        """Spawn the drain loop."""
        self.ctrl.engine.process(
            self._loop(), name=f"{self.ctrl.name}.cmdproc{self.which}", daemon=True
        )

    def _loop(self):
        while True:
            cmd = yield self.queue.dequeue()
            yield self.ctrl.op_ns
            yield from self.execute(cmd)
            self.executed += 1

    def execute(self, cmd: Command) -> Generator["Event", None, None]:
        """Dispatch one command (block ops are queued to their unit)."""
        ctrl = self.ctrl
        if isinstance(cmd, CmdWriteDram):
            yield from write_dram(ctrl, cmd.addr, cmd.data)
            if cmd.set_cls_state is not None and ctrl.cls is not None:
                line_bytes = ctrl.config.bus.line_bytes
                first = ctrl.cls.line_of(cmd.addr)
                n = -(-len(cmd.data) // line_bytes)
                for line in range(first, first + n):
                    ctrl.cls.set_state(line, cmd.set_cls_state, fill=True)
                yield n * ctrl.config.bus.cycle_ns
            if getattr(cmd, "notify_sp", False):
                ctrl.post_sp_event(("dram_write", cmd.addr, len(cmd.data)))
        elif isinstance(cmd, CmdWriteDramFromSram):
            # zero-copy: the view rides to write_dram, which materializes
            # at the IBus crossing (its protection boundary)
            data = yield from ctrl.sram_read_view(cmd.bank, cmd.offset,
                                                  cmd.length)
            yield from write_dram(ctrl, cmd.dram_addr, data)
        elif isinstance(cmd, CmdReadDram):
            data = yield from read_dram(ctrl, cmd.addr, cmd.length)
            yield from ctrl.sram_write(cmd.bank, cmd.offset, data)
        elif isinstance(cmd, CmdCopySram):
            data = yield from ctrl.sram_read(cmd.src_bank, cmd.src_offset, cmd.length)
            yield from ctrl.sram_write(cmd.dst_bank, cmd.dst_offset, data)
        elif isinstance(cmd, CmdSendMessage):
            q = ctrl.tx_queues[cmd.queue]
            yield from ctrl._transmit(q, cmd.header, cmd.payload)
        elif isinstance(cmd, CmdNotify):
            src = getattr(cmd, "_src_node", cmd.src_node)
            yield from ctrl.deliver(cmd.queue, src, cmd.payload)
        elif isinstance(cmd, CmdSetClsState):
            if ctrl.cls is None:
                raise FirmwareError("CmdSetClsState without clsSRAM configured")
            ctrl.cls.set_range(cmd.line, cmd.n_lines, cmd.state)
            yield cmd.n_lines * ctrl.config.bus.cycle_ns
        elif isinstance(cmd, CmdBusOp):
            txn = BusTransaction(cmd.op, cmd.addr, cmd.size, cmd.data,
                                 master=f"niu{ctrl.node_id}")
            yield from ctrl.abiu_issue(txn)
        elif isinstance(cmd, CmdBlockRead):
            yield ctrl.block_read_unit.submit(cmd)
        elif isinstance(cmd, CmdBlockTx):
            yield ctrl.block_tx_unit.submit(cmd)
        elif isinstance(cmd, CmdForward):
            yield from ctrl.emit_command(cmd.dst_node, cmd.inner, cmd.priority)
        elif isinstance(cmd, CmdCall):
            cmd.fn()
        else:
            raise QueueError(f"unknown command {cmd!r}")


# ----------------------------------------------------------------------
# aBIU-mastered DRAM movement, shared by commands and block units
# ----------------------------------------------------------------------

def write_dram(ctrl: "Ctrl", addr: int, data: bytes
               ) -> Generator["Event", None, None]:
    """Move ``data`` to aP DRAM: IBus crossing, then aBIU bus mastering.

    Line-aligned 32-byte spans go as WRITE_LINE bursts; ragged edges as
    single-beat writes — the same transfer-size decomposition the
    hardware's bus sequencer performs.
    """
    line = ctrl.config.bus.line_bytes
    # Protection boundary: the data leaves SRAM here and crosses the IBus
    # into the aBIU, so a zero-copy view materializes to immutable bytes
    # exactly once (the source SRAM may be recycled while the per-line bus
    # transactions below are still in flight).
    if type(data) is not bytes:
        data = bytes(data)
    # the data crosses the IBus from SRAM/RxU into the aBIU
    if not ctrl.ibus.try_acquire():
        yield ctrl.ibus.request()
    try:
        beats = -(-len(data) // ctrl.config.niu.ibus_width_bytes)
        yield ctrl.op_ns + beats * ctrl.config.bus.cycle_ns
    finally:
        ctrl.ibus.release()
    # slices of the immutable copy ride each bus transaction without
    # further copying (the landing store copies into DRAM/cache frames)
    mv = memoryview(data)
    total = len(data)
    off = 0
    master = f"niu{ctrl.node_id}"
    while off < total:
        a = addr + off
        remaining = total - off
        if a % line == 0 and remaining >= line:
            txn = BusTransaction(OP_WRITE_LINE, a, line,
                                 mv[off : off + line], master=master)
            off += line
        else:
            step = min(8 - (a % 8), remaining)
            txn = BusTransaction(OP_WRITE, a, step,
                                 mv[off : off + step], master=master)
            off += step
        yield from ctrl.abiu_issue(txn)


def read_dram(ctrl: "Ctrl", addr: int, length: int
              ) -> Generator["Event", None, bytes]:
    """Read ``length`` bytes of aP DRAM through aBIU bus mastering."""
    line = ctrl.config.bus.line_bytes
    parts = []
    off = 0
    master = f"niu{ctrl.node_id}"
    while off < length:
        a = addr + off
        remaining = length - off
        if a % line == 0 and remaining >= line:
            txn = BusTransaction(OP_READ_LINE, a, line, master=master)
            step = line
        else:
            step = min(8 - (a % 8), remaining)
            txn = BusTransaction(OP_READ, a, step, master=master)
        yield from ctrl.abiu_issue(txn)
        parts.append(txn.data)
        off += step
    # the data crosses the IBus on its way into SRAM/TxU
    if not ctrl.ibus.try_acquire():
        yield ctrl.ibus.request()
    try:
        beats = -(-length // ctrl.config.niu.ibus_width_bytes)
        yield ctrl.op_ns + beats * ctrl.config.bus.cycle_ns
    finally:
        ctrl.ibus.release()
    # single gather of the per-transaction results (was: bytearray append
    # per transaction plus a final bytes() copy)
    return b"".join(parts)


# ----------------------------------------------------------------------
# block-operation units
# ----------------------------------------------------------------------

class BlockReadUnit:
    """Hardware unit: aP DRAM -> SRAM, up to one aligned page per command."""

    def __init__(self, ctrl: "Ctrl") -> None:
        self.ctrl = ctrl
        self.requests = Store(ctrl.engine, capacity=4,
                              name=f"{ctrl.name}.blkread")
        self.completed = 0

    def submit(self, cmd: CmdBlockRead):
        """Queue a command (event; backpressures when the unit is saturated)."""
        self._check(cmd)
        return self.requests.put(cmd)

    def _check(self, cmd: CmdBlockRead) -> None:
        page = self.ctrl.config.dram.page_bytes
        if cmd.length <= 0 or cmd.length > page:
            raise QueueError(f"block read of {cmd.length} bytes exceeds a page")
        if (cmd.dram_addr // page) != ((cmd.dram_addr + cmd.length - 1) // page):
            raise QueueError("block read crosses a page boundary")

    def start(self) -> None:
        """Spawn the unit's engine."""
        self.ctrl.engine.process(self._loop(), name=f"{self.ctrl.name}.bru",
                                 daemon=True)

    def _loop(self):
        ctrl = self.ctrl
        while True:
            cmd: CmdBlockRead = yield self.requests.get()
            data = yield from read_dram(ctrl, cmd.dram_addr, cmd.length)
            yield from ctrl.sram_write(cmd.bank, cmd.offset, data)
            self.completed += 1
            ctrl.stats.counter(f"{ctrl.name}.block_reads").incr()
            if cmd.done is not None:
                cmd.done.succeed()


class BlockTxUnit:
    """Hardware unit: SRAM -> network as remote DRAM-write command packets."""

    def __init__(self, ctrl: "Ctrl") -> None:
        self.ctrl = ctrl
        self.requests = Store(ctrl.engine, capacity=4, name=f"{ctrl.name}.blktx")
        self.completed = 0

    def submit(self, cmd: CmdBlockTx):
        """Queue a command (event; backpressures when the unit is saturated)."""
        if cmd.length <= 0 or cmd.length > self.ctrl.config.dram.page_bytes:
            raise QueueError(f"block tx of {cmd.length} bytes exceeds a page")
        return self.requests.put(cmd)

    def start(self) -> None:
        """Spawn the unit's engine."""
        self.ctrl.engine.process(self._loop(), name=f"{self.ctrl.name}.btu",
                                 daemon=True)

    def _loop(self):
        ctrl = self.ctrl
        while True:
            cmd: CmdBlockTx = yield self.requests.get()
            if getattr(cmd, "after", None) is not None:
                yield cmd.after
            off = 0
            while off < cmd.length:
                chunk = min(BLOCK_TX_CHUNK, cmd.length - off)
                # zero-copy chunk pickup; CmdWriteDram construction is the
                # protection boundary and materializes the view
                data = yield from ctrl.sram_read_view(cmd.bank,
                                                      cmd.offset + off, chunk)
                wcmd = CmdWriteDram(cmd.dst_addr + off, data,
                                    set_cls_state=cmd.cls_state)
                wcmd.notify_sp = cmd.notify_sp_each  # type: ignore[attr-defined]
                yield from ctrl.emit_command(cmd.dst_node, wcmd)
                off += chunk
            if cmd.notify_queue is not None:
                payload = cmd.notify_payload[:MAX_PAYLOAD]
                yield from ctrl.emit_command(
                    cmd.dst_node,
                    CmdNotify(cmd.notify_queue, payload, src_node=ctrl.node_id),
                )
            self.completed += 1
            ctrl.stats.counter(f"{ctrl.name}.block_txs").incr()
            if cmd.done is not None:
                cmd.done.succeed()
