"""NUMA firmware: remote access by bus-operation forwarding.

"NUMA ... is implemented by passing all bus operations within a 1GB
address range to the sP in a special queue implemented by the BIUs ...
The sP firmware does whatever is necessary to ensure coherency,
including sending messages to other sPs."

The model's protocol: every NUMA address has a *home node* determined by
the address (``NUMA_BASE + home*span + offset``), backed by a reserved
window of the home's DRAM.  Loads are retried on the aP bus until the
local firmware has fetched the data (from its own backing if it is the
home, else with a request/reply exchange on the high-priority protocol
queues) and armed the aBIU capture buffer.  Stores are posted: the aBIU
completes the bus operation immediately, and firmware forwards the write
to the home, where the ordered command stream applies it.  Per-location
coherence follows from home-node serialization; there is no caching —
which is exactly why NUMA hammers firmware occupancy and why the paper
also builds S-COMA.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Tuple

from repro.common.errors import FirmwareError
from repro.common.wire import (
    MSG_NUMA_RREP,
    MSG_NUMA_RREQ,
    MSG_NUMA_WREQ,
    NUMA_RREP,
    NUMA_RREQ,
    NUMA_WREQ,
)
from repro.firmware.base import fw_dram_read, fw_send, register_msg_handler
from repro.mem.address import NUMA_BASE
from repro.niu.commands import LOCAL_CMDQ_0, CmdWriteDram
from repro.niu.niu import SP_PROTOCOL_QUEUE, SP_TX_PROTOCOL, vdst_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event


class NumaMap:
    """Address arithmetic for the NUMA global region."""

    def __init__(self, n_nodes: int, span: int, backing_base: int) -> None:
        self.n_nodes = n_nodes
        #: bytes of the global region homed on each node.
        self.span = span
        #: DRAM offset of the home backing window (same on every node).
        self.backing_base = backing_base

    def home_of(self, addr: int) -> int:
        """Home node of a NUMA global address."""
        node = (addr - NUMA_BASE) // self.span
        if not (0 <= node < self.n_nodes):
            raise FirmwareError(f"NUMA address {addr:#x} beyond configured span")
        return node

    def backing_addr(self, addr: int) -> int:
        """Home-local DRAM address backing a NUMA global address."""
        return self.backing_base + (addr - NUMA_BASE) % self.span

    def global_addr(self, home: int, offset: int) -> int:
        """Global NUMA address of ``offset`` within ``home``'s span."""
        if not (0 <= home < self.n_nodes):
            raise FirmwareError(f"no NUMA home node {home}")
        if not (0 <= offset < self.span):
            raise FirmwareError(f"NUMA offset {offset:#x} beyond span")
        return NUMA_BASE + home * self.span + offset


def setup_numa(sp: "ServiceProcessor", numa_map: NumaMap) -> None:
    """Install NUMA firmware on one node's sP."""
    sp.state["numa_map"] = numa_map
    sp.state["numa_staging"] = sp.state["niu"].alloc_ssram(64)
    sp.register("numa_read", handle_local_read)
    sp.register("numa_write", handle_local_write)
    register_msg_handler(sp, MSG_NUMA_RREQ, handle_home_read)
    register_msg_handler(sp, MSG_NUMA_RREP, handle_read_reply)
    register_msg_handler(sp, MSG_NUMA_WREQ, handle_home_write)


def handle_local_read(sp: "ServiceProcessor", event: Tuple
                      ) -> Generator["Event", None, None]:
    """A local aP load of the NUMA region missed: fetch its data."""
    _kind, addr, size = event
    yield sp.compute(sp.fw.numa_local_insns)
    nm: NumaMap = sp.state["numa_map"]
    home = nm.home_of(addr)
    if home == sp.node_id:
        data = yield from fw_dram_read(
            sp, nm.backing_addr(addr), max(size, 8), sp.state["numa_staging"]
        )
        sp.state["niu"].numa_handler.supply(addr, data[:size])
    else:
        yield from fw_send(
            sp, vdst_for(home, SP_PROTOCOL_QUEUE),
            NUMA_RREQ.pack(size, addr), queue=SP_TX_PROTOCOL,
        )


def handle_local_write(sp: "ServiceProcessor", event: Tuple
                       ) -> Generator["Event", None, None]:
    """A local aP store to the NUMA region was captured: forward it home."""
    _kind, addr, data = event
    yield sp.compute(sp.fw.numa_local_insns)
    nm: NumaMap = sp.state["numa_map"]
    home = nm.home_of(addr)
    if home == sp.node_id:
        yield from sp.sbiu.enqueue_command(
            LOCAL_CMDQ_0, CmdWriteDram(nm.backing_addr(addr), data)
        )
    else:
        yield from fw_send(
            sp, vdst_for(home, SP_PROTOCOL_QUEUE),
            NUMA_WREQ.pack(addr, tail=data), queue=SP_TX_PROTOCOL,
        )


def handle_home_read(sp: "ServiceProcessor", src: int, payload: bytes
                     ) -> Generator["Event", None, None]:
    """Home side of a remote NUMA load."""
    size, addr = NUMA_RREQ.unpack(payload)
    yield sp.compute(sp.fw.numa_home_insns)
    nm: NumaMap = sp.state["numa_map"]
    if nm.home_of(addr) != sp.node_id:
        raise FirmwareError(f"misrouted NUMA read for {addr:#x}")
    data = yield from fw_dram_read(
        sp, nm.backing_addr(addr), max(size, 8), sp.state["numa_staging"]
    )
    yield from fw_send(
        sp, vdst_for(src, SP_PROTOCOL_QUEUE),
        NUMA_RREP.pack(addr, tail=data[:size]), queue=SP_TX_PROTOCOL,
    )


def handle_read_reply(sp: "ServiceProcessor", src: int, payload: bytes
                      ) -> Generator["Event", None, None]:
    """Requester side: arm the aBIU so the retried load completes."""
    addr, data = NUMA_RREP.unpack(payload)
    yield sp.compute(sp.fw.numa_reply_insns)
    sp.state["niu"].numa_handler.supply(addr, data)


def handle_home_write(sp: "ServiceProcessor", src: int, payload: bytes
                      ) -> Generator["Event", None, None]:
    """Home side of a remote NUMA (posted) store."""
    addr, data = NUMA_WREQ.unpack(payload)
    yield sp.compute(sp.fw.numa_home_insns)
    nm: NumaMap = sp.state["numa_map"]
    if nm.home_of(addr) != sp.node_id:
        raise FirmwareError(f"misrouted NUMA write for {addr:#x}")
    yield from sp.sbiu.enqueue_command(
        LOCAL_CMDQ_0, CmdWriteDram(nm.backing_addr(addr), data)
    )
