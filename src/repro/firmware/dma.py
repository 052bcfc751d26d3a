"""The DMA engine: firmware orchestration of the block units.

"DMA is a combination of blocked operations.  The user sends a message
to the sP requesting a DMA.  The sP breaks up the DMA into as many
blocked operations as are necessary to respect the page limit and
boundary limitations, and issues the appropriate read/transmit block
operation combinations."

The engine double-buffers two page-sized aSRAM staging areas: while one
page's block-transmit streams onto the network, the next page's block
read fills the other buffer.  Chaining (``CmdBlockTx.after``) keeps the
sP out of the per-page critical path — this is Block Transfer Approach 3,
and the reason its sP occupancy is near nil.

The ``mode`` byte of the request selects the §6 experiment variants:

* mode 3 — plain hardware DMA, notification with the final packet;
* mode 4 — optimistic early notification after ~25 % of the data, with
  per-chunk sP wakeups updating clsSRAM state in firmware;
* mode 5 — like 4, but the (reconfigured) destination aBIU updates
  clsSRAM in hardware as each chunk lands, so the destination sP never
  wakes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Tuple

from repro.common.errors import FirmwareError
from repro.common.wire import DMA_NOTIFY, DMA_REQ, MSG_DMA_REQ
from repro.firmware.base import fw_wait, register_msg_handler
from repro.niu.clssram import CLS_RW
from repro.niu.commands import LOCAL_CMDQ_1, CmdBlockRead, CmdBlockTx
from repro.niu.queues import BANK_A

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event

#: sub-page piece size used to pipeline block read against block transmit.
DMA_PIECE_BYTES = 1024


def setup_dma_engine(sp: "ServiceProcessor") -> None:
    """Allocate staging buffers, start the engine task, register intake.

    The engine runs as a *background firmware task*: the dispatch kernel
    only validates and queues each request, so a long transfer never
    head-of-line blocks protocol events (S-COMA/NUMA messages keep their
    latency while bulk data streams — the firmware-structure counterpart
    of the two-priority network).  Requests stay FIFO through the intake
    queue.
    """
    from repro.sim.store import Store

    page = sp.ctrl.config.dram.page_bytes
    niu = sp.state["niu"]
    buffers = [niu.alloc_asram(page, align=64) for _ in range(2)]
    sp.state["dma_buffers"] = buffers
    #: per-buffer event: the previous BlockTx using it has completed.
    sp.state["dma_buffer_free"] = [None, None]
    sp.state["dma_requests"] = Store(sp.engine, capacity=None,
                                     name=f"{sp.name}.dmareq")
    register_msg_handler(sp, MSG_DMA_REQ, intake_dma_request)
    sp.engine.process(_dma_engine_task(sp), name=f"{sp.name}.dma_engine",
                      daemon=True)


def intake_dma_request(sp: "ServiceProcessor", src: int, payload: bytes
                       ) -> Generator["Event", None, None]:
    """Kernel-side intake: validate cheaply, queue for the engine task."""
    yield sp.compute(10)
    sp.state["dma_requests"].try_put((src, payload))


def _dma_engine_task(sp: "ServiceProcessor"):
    """The background engine: serves queued requests strictly in order.

    Busy time accrues on the shared sP tracker while the engine computes
    or issues commands, and is released across its waits (fw_wait), so
    occupancy accounting still reflects one processor's time.
    """
    requests = sp.state["dma_requests"]
    while True:
        src, payload = yield requests.get()
        sp.busy.begin()
        try:
            yield from handle_dma_request(sp, src, payload)
        finally:
            sp.busy.end()


def split_pages(addr: int, length: int, page: int) -> List[Tuple[int, int]]:
    """Split ``[addr, addr+length)`` at page boundaries -> (addr, len) list."""
    pieces = []
    while length > 0:
        n = min(page - (addr % page), length)
        pieces.append((addr, n))
        addr += n
        length -= n
    return pieces


def handle_dma_request(sp: "ServiceProcessor", src: int, payload: bytes
                       ) -> Generator["Event", None, None]:
    """Serve one MSG_DMA_REQ: chained block read + block transmit per page."""
    src_addr, dst_node, dst_addr, length, notify_q, mode = \
        DMA_REQ.unpack(payload)
    if mode == 2:
        # Approach 2: the sP packetizes with TagOn messages instead of
        # using the block units
        from repro.firmware.blockxfer import bt2_send

        yield sp.compute(sp.fw.dma_request_insns)
        yield from bt2_send(sp, src_addr, dst_node, dst_addr, length, notify_q)
        return
    if mode not in (3, 4, 5):
        raise FirmwareError(f"unknown DMA mode {mode}")
    yield sp.compute(sp.fw.dma_request_insns)

    # pieces smaller than a page keep the two block units pipelined: one
    # buffer ships on the network while the other fills from DRAM.  The
    # piece size is a firmware tunable (ablated in bench_ablations.py).
    page = sp.ctrl.config.dram.page_bytes
    piece_bytes = min(page, sp.state.get("dma_piece_bytes", DMA_PIECE_BYTES))
    pieces = split_pages(src_addr, length, piece_bytes)
    buffers = sp.state["dma_buffers"]
    buffer_free = sp.state["dma_buffer_free"]
    engine = sp.engine

    # Approach 4/5: early notification once ~25% of the data has landed
    early_cut = None
    if mode in (4, 5):
        early_cut = max(1, (length + 3) // 4)

    sent = 0
    for i, (piece_addr, piece_len) in enumerate(pieces):
        yield sp.compute(sp.fw.dma_per_page_insns)
        buf = buffers[i % 2]
        prev_tx = buffer_free[i % 2]
        if prev_tx is not None:
            yield from fw_wait(sp, prev_tx)  # buffer still shipping: idle
        read_done = engine.event(name=f"dma.read{i}")
        tx_done = engine.event(name=f"dma.tx{i}")
        buffer_free[i % 2] = tx_done
        last = i == len(pieces) - 1
        notify_here = last and mode == 3
        # early-notification piece: the first piece whose *end* crosses the
        # 25% cut carries the optimistic completion message
        early_here = (
            early_cut is not None
            and sent < early_cut <= sent + piece_len
        )
        yield from sp.sbiu.enqueue_command(
            LOCAL_CMDQ_1,
            CmdBlockRead(piece_addr, piece_len, BANK_A, buf, done=read_done),
        )
        yield from sp.sbiu.enqueue_command(
            LOCAL_CMDQ_1,
            CmdBlockTx(
                bank=BANK_A,
                offset=buf,
                length=piece_len,
                dst_node=dst_node,
                dst_addr=dst_addr + sent,
                after=read_done,
                done=tx_done,
                notify_queue=notify_q if (notify_here or early_here) else None,
                notify_payload=DMA_NOTIFY.pack(length),
                cls_state=CLS_RW if mode == 5 else None,
                notify_sp_each=(mode == 4),
            ),
        )
        sent += piece_len

    final_tx = buffer_free[(len(pieces) - 1) % 2]
    if mode in (4, 5):
        # the receiver was told "done" early; the transfer itself still
        # completes in the background — nothing further for this sP
        yield from fw_wait(sp, final_tx)
    else:
        yield from fw_wait(sp, final_tx)
    sp.stats.counter(f"{sp.name}.dma_served").incr()


def install_dma_firmware(sp: "ServiceProcessor") -> None:
    """Install the DMA engine (requires ``sp.state['niu']``)."""
    setup_dma_engine(sp)
