"""Firmware building blocks shared by every protocol engine.

Provides the timed primitives firmware handlers compose:

* :func:`fw_send` — compose and launch a message through a CTRL command
  queue (the ordered firmware send path); :func:`fw_send_to` addresses
  it to a (node, logical queue) in the machine's addressing mode;
* :func:`fw_recv_all` — drain an sP-owned receive queue from sSRAM;
* :func:`fw_dram_read` / :func:`fw_dram_write` — move DRAM data through
  the in-order command stream with a CmdCall completion fence;
* :func:`fw_wait` — block on an event *without* accruing sP occupancy
  (the firmware would service other events meanwhile);
* the ``rxmsg`` dispatcher that fans protocol messages out to per-type
  handlers registered in ``sp.state["msg_handlers"]``.

Every primitive charges the instruction budgets from
:class:`~repro.common.config.FirmwareCostConfig` — firmware occupancy is
the paper's central measured quantity, so the costs are explicit and
centralized.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, List, Optional, Tuple

from repro.common.errors import FirmwareError
from repro.niu.commands import (
    LOCAL_CMDQ_0,
    CmdCall,
    CmdReadDram,
    CmdSendMessage,
    CmdWriteDram,
)
from repro.niu.msgformat import (
    FLAG_RAW,
    FLAG_TAGON,
    HEADER_BYTES,
    MsgHeader,
    decode_rx_header,
)
from repro.niu.niu import SP_TX_GENERAL, vdst_for
from repro.niu.queues import BANK_S

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event


def fw_wait(sp: "ServiceProcessor", event: "Event"
            ) -> Generator["Event", None, object]:
    """Wait on ``event`` without counting the wait as sP occupancy."""
    sp.busy.end()
    try:
        value = yield event
    finally:
        sp.busy.begin()
    return value


def fw_send(
    sp: "ServiceProcessor",
    vdst: int,
    payload: bytes,
    queue: int = SP_TX_GENERAL,
    tagon_bank: Optional[int] = None,
    tagon_offset: int = 0,
    tagon_units: int = 0,
    raw_queue: Optional[int] = None,
) -> Generator["Event", None, None]:
    """Send a message from firmware via the ordered command stream.

    With ``raw_queue`` set, the message uses kernel-mode RAW addressing:
    ``vdst`` is the physical destination node and ``raw_queue`` the
    destination logical queue (required beyond the 16-node byte-vdst
    translation convention; the tx queue must be ``allow_raw``).
    """
    yield sp.compute(sp.fw.send_msg_insns)
    flags = 0
    if tagon_bank is not None:
        flags |= FLAG_TAGON
    if raw_queue is not None:
        flags |= FLAG_RAW
    hdr = MsgHeader(
        flags=flags,
        vdst=vdst,
        length=len(payload),
        dst_queue=raw_queue or 0,
        tagon_bank=tagon_bank or 0,
        tagon_offset=tagon_offset,
        tagon_units=tagon_units,
    )
    yield from sp.sbiu.enqueue_command(
        LOCAL_CMDQ_0, CmdSendMessage(queue=queue, header=hdr, payload=payload)
    )


def fw_send_to(sp: "ServiceProcessor", node: int, queue: int,
               payload: bytes, tx: int = SP_TX_GENERAL
               ) -> Generator["Event", None, None]:
    """Send ``payload`` to logical ``queue`` of ``node`` through tx
    queue ``tx``: a translated vdst byte, or a RAW header when machine
    assembly set ``ctrl.raw_addressing``."""
    if sp.ctrl.raw_addressing:
        yield from fw_send(sp, node, payload, queue=tx, raw_queue=queue)
    else:
        yield from fw_send(sp, vdst_for(node, queue), payload, queue=tx)


def fw_recv_all(sp: "ServiceProcessor", logical: int
                ) -> Generator["Event", None, List[Tuple[int, bytes]]]:
    """Drain every queued message from an sP-owned receive queue.

    Returns ``[(src_node, payload), ...]`` oldest first.  Reads entries
    from sSRAM through the sBIU and retires them with consumer-pointer
    updates through the immediate interface.
    """
    ctrl = sp.ctrl
    slot = ctrl.rx_cache.resident().get(logical)
    if slot is None:
        return []
    q = ctrl.rx_queues[slot]
    out: List[Tuple[int, bytes]] = []
    while not q.is_empty:
        yield sp.compute(sp.fw.recv_msg_insns)
        offset = q.slot_offset(q.consumer)
        raw = yield from sp.sbiu.read_ssram(offset, HEADER_BYTES)
        src, length, _flags = decode_rx_header(raw)
        payload = b""
        if length:
            payload = yield from sp.sbiu.read_ssram(offset + HEADER_BYTES, length)
        yield from sp.sbiu.immediate(
            lambda i=slot, c=q.consumer + 1: ctrl.rx_consumer_update(i, c)
        )
        out.append((src, payload))
    return out


def fw_dram_read(sp: "ServiceProcessor", addr: int, length: int, staging: int
                 ) -> Generator["Event", None, bytes]:
    """Read aP DRAM into sSRAM ``staging`` and fetch the bytes.

    Uses the in-order command queue with a :class:`CmdCall` fence — the
    firmware idiom for "issue a bus operation and know when it is done".
    """
    done = sp.engine.event(name="fw.dram_read")
    yield from sp.sbiu.enqueue_command(
        LOCAL_CMDQ_0, CmdReadDram(addr, length, BANK_S, staging)
    )
    yield from sp.sbiu.enqueue_command(LOCAL_CMDQ_0, CmdCall(done.succeed))
    yield from fw_wait(sp, done)
    return (yield from sp.sbiu.read_ssram(staging, length))


def fw_dram_write(sp: "ServiceProcessor", addr: int, data: bytes,
                  fence: bool = True) -> Generator["Event", None, None]:
    """Write ``data`` into aP DRAM through the command stream."""
    yield from sp.sbiu.enqueue_command(LOCAL_CMDQ_0, CmdWriteDram(addr, data))
    if fence:
        done = sp.engine.event(name="fw.dram_write")
        yield from sp.sbiu.enqueue_command(LOCAL_CMDQ_0, CmdCall(done.succeed))
        yield from fw_wait(sp, done)


# ----------------------------------------------------------------------
# the rxmsg dispatcher
# ----------------------------------------------------------------------

#: a protocol message handler: ``handler(sp, src_node, payload) -> gen``.
MsgHandler = Callable[["ServiceProcessor", int, bytes], Generator]


def register_msg_handler(sp: "ServiceProcessor", msg_type: int,
                         handler: MsgHandler) -> None:
    """Bind a protocol message type byte to its firmware handler.

    Each type byte is bound once per sP: every setup runs once, so a
    second binding is a clash and raises rather than silently replacing
    the first."""
    handlers = sp.state.setdefault("msg_handlers", {})
    bound = handlers.get(msg_type)
    if bound is not None:
        raise FirmwareError(
            f"{sp.name}: message type {msg_type} is already bound to "
            f"{getattr(bound, '__name__', bound)} (binding "
            f"{getattr(handler, '__name__', handler)})")
    handlers[msg_type] = handler


def register_queue_dispatcher(sp: "ServiceProcessor", logical: int,
                              dispatcher) -> None:
    """Give one sP-owned logical queue its own drain routine.

    Used by paths that must not read payload bytes through the sP (the
    Approach-2 bulk queue): the dispatcher sees the raw queue and decides
    what to read.
    """
    sp.state.setdefault("queue_dispatchers", {})[logical] = dispatcher


def rxmsg_dispatcher(sp: "ServiceProcessor", event: Tuple
                     ) -> Generator["Event", None, None]:
    """The ``rxmsg`` event handler: drain the queue, fan out by type byte."""
    _kind, _slot, logical = event
    special = sp.state.get("queue_dispatchers", {}).get(logical)
    if special is not None:
        yield from special(sp, logical)
        return
    messages = yield from fw_recv_all(sp, logical)
    handlers = sp.state.get("msg_handlers", {})
    for src, payload in messages:
        if not payload:
            continue
        handler = handlers.get(payload[0])
        if handler is None:
            sp.unhandled += 1
            continue
        yield from handler(sp, src, payload)


def install_base_firmware(sp: "ServiceProcessor") -> None:
    """Install the dispatcher and a default protection logger."""
    sp.register("rxmsg", rxmsg_dispatcher)

    def on_protection(sp_, event):
        sp_.state.setdefault("protection_log", []).append(event)
        yield sp_.compute(20)

    sp.register("protection", on_protection)
