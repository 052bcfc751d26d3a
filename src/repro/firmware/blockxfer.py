"""Block-transfer firmware: Approach 2 and the Approach-4/5 receiver side.

**Approach 2** ("the aP issues a request to the local sP, which takes
over the responsibility of reading, packetizing, and sending out the
packets ... neither processor reads the data directly"):

* sender sP: for each 80-byte chunk it pushes ``CmdReadDram`` (aP DRAM →
  sSRAM staging) and ``CmdSendMessage`` with a TagOn pickup of that
  staging — the in-order command queue guarantees the read lands before
  the send reads it, so no fences are needed and no processor touches a
  data byte;
* receiver sP: chunks land in the dedicated bulk queue; firmware reads
  only the 8-byte descriptor and issues ``CmdWriteDramFromSram`` against
  the payload bytes still sitting in receive-queue SRAM, retiring the
  queue slot with an in-order ``CmdCall`` so CTRL cannot overwrite the
  entry before the data has left.

The per-chunk firmware loop is exactly why the paper reports Approach 2
has "a significant impact on sP occupancy".

**Approach 4/5 receiver support**:

* ``MSG_BT45_ARM`` sets the destination lines' clsSRAM state to PENDING
  (retry silently) before the transfer, in firmware (mode 4) or with one
  bulk ``CmdSetClsState`` through the block machinery (mode 5);
* the ``dram_write`` event handler is the mode-4 per-chunk sP wakeup
  that flips landed lines to RW; mode 5 needs no wakeup because the
  reconfigured aBIU updates clsSRAM in hardware.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Tuple

from repro.common.errors import FirmwareError
from repro.common.wire import (
    BT2_CHUNK,
    BT2_DONE,
    BT45_ARM,
    DMA_NOTIFY,
    MSG_BT2_CHUNK,
    MSG_BT2_DONE,
    MSG_BT45_ARM,
)
from repro.firmware.base import (
    fw_wait,
    register_msg_handler,
    register_queue_dispatcher,
)
from repro.niu.clssram import CLS_PENDING, CLS_RW
from repro.niu.commands import (
    LOCAL_CMDQ_0,
    LOCAL_CMDQ_1,
    CmdCall,
    CmdNotify,
    CmdReadDram,
    CmdSendMessage,
    CmdSetClsState,
    CmdWriteDramFromSram,
)
from repro.niu.msgformat import (
    FLAG_TAGON,
    HEADER_BYTES,
    TAGON_LARGE_UNITS,
    TAGON_UNIT_BYTES,
    MsgHeader,
    decode_rx_header,
)
from repro.niu.niu import SP_BULK_QUEUE, SP_TX_GENERAL, vdst_for
from repro.niu.queues import BANK_S

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event

#: Approach-2 chunk: the large TagOn attachment (2.5 lines).
BT2_CHUNK_BYTES = TAGON_LARGE_UNITS * TAGON_UNIT_BYTES  # 80 bytes
#: firmware cost per Approach-2 chunk on each side.
BT2_SEND_CHUNK_INSNS = 90
BT2_RECV_CHUNK_INSNS = 80
#: firmware cost of arming one line (Approach 4).
ARM_INSNS_PER_LINE = 10


def setup_blockxfer(sp: "ServiceProcessor") -> None:
    """Install Approach-2 and Approach-4/5 firmware on one sP."""
    niu = sp.state["niu"]
    sp.state["bt2_staging"] = niu.alloc_ssram(BT2_CHUNK_BYTES, align=16)
    sp.state["bt2_rx_next"] = 0
    register_queue_dispatcher(sp, SP_BULK_QUEUE, bt2_receive_dispatcher)
    register_msg_handler(sp, MSG_BT45_ARM, handle_arm)
    sp.register("dram_write", handle_dram_write)


# ----------------------------------------------------------------------
# Approach 2: sender side
# ----------------------------------------------------------------------

def bt2_send(sp: "ServiceProcessor", src_addr: int, dst_node: int,
             dst_addr: int, length: int, notify_queue: int
             ) -> Generator["Event", None, None]:
    """Packetize and ship ``length`` bytes through TagOn messages."""
    staging = sp.state["bt2_staging"]
    bulk_vdst = vdst_for(dst_node, SP_BULK_QUEUE)
    offset = 0
    while offset < length:
        chunk = min(BT2_CHUNK_BYTES, length - offset)
        yield sp.compute(BT2_SEND_CHUNK_INSNS)
        yield from sp.sbiu.enqueue_command(
            LOCAL_CMDQ_0, CmdReadDram(src_addr + offset, chunk, BANK_S, staging)
        )
        hdr = MsgHeader(
            flags=FLAG_TAGON,
            vdst=bulk_vdst,
            length=BT2_CHUNK.size,
            tagon_bank=BANK_S,
            tagon_offset=staging,
            tagon_units=TAGON_LARGE_UNITS,
        )
        yield from sp.sbiu.enqueue_command(
            LOCAL_CMDQ_0,
            CmdSendMessage(queue=SP_TX_GENERAL, header=hdr,
                           payload=BT2_CHUNK.pack(dst_addr + offset)),
        )
        offset += chunk
    # the completion marker follows the data through the same FIFO path
    yield sp.compute(sp.fw.send_msg_insns)
    done_hdr = MsgHeader(vdst=bulk_vdst, length=BT2_DONE.size)
    yield from sp.sbiu.enqueue_command(
        LOCAL_CMDQ_0,
        CmdSendMessage(queue=SP_TX_GENERAL, header=done_hdr,
                       payload=BT2_DONE.pack(notify_queue, length)),
    )
    sp.stats.counter(f"{sp.name}.bt2_served").incr()


# ----------------------------------------------------------------------
# Approach 2: receiver side
# ----------------------------------------------------------------------

def bt2_receive_dispatcher(sp: "ServiceProcessor", logical: int
                           ) -> Generator["Event", None, None]:
    """Drain the bulk queue reading descriptors only.

    The chunk payload's TagOn bytes stay in receive-queue SRAM until the
    in-order ``CmdWriteDramFromSram`` has moved them to DRAM; only then
    does the chained ``CmdCall`` free the slot.
    """
    ctrl = sp.ctrl
    slot = ctrl.rx_cache.resident().get(logical)
    if slot is None:
        raise FirmwareError(f"bulk queue {logical} is not resident")
    q = ctrl.rx_queues[slot]
    next_unprocessed = sp.state["bt2_rx_next"]
    while next_unprocessed < q.producer:
        entry = next_unprocessed
        next_unprocessed += 1
        sp.state["bt2_rx_next"] = next_unprocessed
        yield sp.compute(BT2_RECV_CHUNK_INSNS)
        base = q.slot_offset(entry)
        raw = yield from sp.sbiu.read_ssram(base, HEADER_BYTES + BT2_CHUNK.size)
        src, length, _flags = decode_rx_header(raw[:HEADER_BYTES])
        desc = raw[HEADER_BYTES:]
        if desc[0] == MSG_BT2_CHUNK:
            dst_addr, _ = BT2_CHUNK.unpack(desc)
            data_len = length - BT2_CHUNK.size  # TagOn bytes after it
            yield from sp.sbiu.enqueue_command(
                LOCAL_CMDQ_0,
                CmdWriteDramFromSram(BANK_S,
                                     base + HEADER_BYTES + BT2_CHUNK.size,
                                     dst_addr, data_len),
            )
            yield from sp.sbiu.enqueue_command(
                LOCAL_CMDQ_0,
                CmdCall(lambda i=slot, c=entry + 1:
                        ctrl.rx_consumer_update(i, c)),
            )
        elif desc[0] == MSG_BT2_DONE:
            notify_queue, total = BT2_DONE.unpack(desc[:BT2_DONE.size])
            # the notification must follow the last data write: same queue
            yield from sp.sbiu.enqueue_command(
                LOCAL_CMDQ_0,
                CmdNotify(notify_queue, DMA_NOTIFY.pack(total),
                          src_node=src),
            )
            yield from sp.sbiu.enqueue_command(
                LOCAL_CMDQ_0,
                CmdCall(lambda i=slot, c=entry + 1:
                        ctrl.rx_consumer_update(i, c)),
            )
        else:
            raise FirmwareError(f"unexpected bulk-queue message {desc[0]}")


# ----------------------------------------------------------------------
# Approach 4/5: receiver-side arming and per-chunk wakeups
# ----------------------------------------------------------------------

def handle_arm(sp: "ServiceProcessor", src: int, payload: bytes
               ) -> Generator["Event", None, None]:
    """Set the destination lines to PENDING before an optimistic transfer."""
    mode, dst_addr, length = BT45_ARM.unpack(payload)
    cls = sp.state["niu"].cls
    line_bytes = cls.line_bytes
    first = cls.line_of(dst_addr)
    n_lines = -(-length // line_bytes)
    if mode == 4:
        # firmware walks the lines one by one
        for line in range(first, first + n_lines):
            yield sp.compute(ARM_INSNS_PER_LINE)
            yield from sp.sbiu.immediate(
                lambda l=line: cls.set_state(l, CLS_PENDING)
            )
    else:
        # mode 5: "the block operation unit can be used to set the
        # clsSRAM bits to their initial retry state" — one command
        yield sp.compute(sp.fw.block_setup_insns)
        done = sp.engine.event(name="arm.done")
        yield from sp.sbiu.enqueue_command(
            LOCAL_CMDQ_1, CmdSetClsState(first, n_lines, CLS_PENDING)
        )
        yield from sp.sbiu.enqueue_command(LOCAL_CMDQ_1, CmdCall(done.succeed))
        yield from fw_wait(sp, done)


def handle_dram_write(sp: "ServiceProcessor", event: Tuple
                      ) -> Generator["Event", None, None]:
    """Mode-4 per-chunk wakeup: mark the landed lines readable."""
    _kind, addr, length = event
    cls = sp.state["niu"].cls
    if not cls.covers(addr):
        return
    first = cls.line_of(addr)
    n_lines = -(-length // cls.line_bytes)
    for line in range(first, first + n_lines):
        yield sp.compute(sp.fw.cls_update_insns)
        yield from sp.sbiu.immediate(lambda l=line: cls.set_state(l, CLS_RW))
