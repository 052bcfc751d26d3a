"""Update-based multiple-writer shared memory (the §5 diff-ing extension).

A shared *update region* of ordinary cached DRAM with release
consistency: writers modify their local copy freely (write-back caching
gives full speed), and an explicit **release** propagates exactly the
words that changed — diffed by the :class:`~repro.niu.diffunit.DiffUnit`
TxU extension — to every peer's copy as remote-command DRAM writes.

Why this supports *multiple writers* (the softDSM property the paper
cites): two nodes writing disjoint words of the same line each transmit
only their own changes, so the copies merge instead of ping-ponging
ownership as an invalidate protocol would.

Mechanics per node:

* an observing aBIU handler marks lines dirty when ownership-acquiring
  bus operations (RWITM / KILL / uncached writes) pass by — zero extra
  traffic, the clsSRAM-style line-granularity trick;
* ``MSG_UPDATE_RELEASE`` (to the node's own service queue) triggers the
  firmware release: FLUSH each dirty line out of the L2, read it from
  DRAM, run the hardware diff against the twin, and forward each changed
  run to every peer via ``CmdForward(CmdWriteDram(...))``;
* the remote writes invalidate stale peer L2 lines through ordinary bus
  snooping on arrival; a completion notification lands in the releasing
  program's receive queue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List

from repro.bus.ops import (OP_FLUSH, OP_KILL, OP_RWITM, OP_WRITE,
                           OP_WRITE_LINE, BusTransaction)
from repro.bus.snoop import SNOOP_OK, SnoopResult
from repro.common.errors import ConfigError, SimulationError
from repro.common.wire import MSG_UPDATE_RELEASE, UPDATE_RELEASE
from repro.firmware.base import fw_dram_read, register_msg_handler
from repro.mem.address import Region
from repro.niu.abiu import BusHandler
from repro.niu.commands import LOCAL_CMDQ_0, CmdBusOp, CmdForward, CmdNotify, CmdWriteDram
from repro.niu.diffunit import DiffUnit

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event

#: firmware cost of one release dispatch and of handling one dirty line.
RELEASE_INSNS = 80
PER_LINE_INSNS = 25


class UpdateRegionHandler(BusHandler):
    """Observes ownership acquisition in the region; never claims.

    The region stays ordinary cached DRAM — this handler is a pure
    listener, which is what makes the mechanism cheap: writers run at
    cache speed between releases.
    """

    handler_name = "update-region"

    _DIRTYING = (OP_RWITM, OP_KILL, OP_WRITE,
                 OP_WRITE_LINE)

    def __init__(self, unit: DiffUnit, node_master: str) -> None:
        self.unit = unit
        self.node_master = node_master  # the NIU's own master tag
        self.observed_dirtying = 0

    def decide(self, txn: BusTransaction) -> SnoopResult:
        # peer updates arrive as NIU-mastered writes; those must NOT mark
        # dirty or releases would echo forever between nodes.  (The aBIU
        # already filters this node's own NIU, but be explicit.)
        if txn.op in self._DIRTYING and not txn.master.startswith("niu"):
            self.unit.mark_dirty(txn.addr)
            self.observed_dirtying += 1
        return SNOOP_OK

    def serve(self, txn):  # pragma: no cover - never claims
        raise SimulationError("UpdateRegionHandler never claims")
        yield


def handle_release(sp: "ServiceProcessor", src: int, payload: bytes
                   ) -> Generator["Event", None, None]:
    """The firmware release: flush, diff, propagate, notify."""
    (notify_queue,) = UPDATE_RELEASE.unpack(payload)
    yield sp.compute(RELEASE_INSNS)
    unit: DiffUnit = sp.state["update_unit"]
    peers: List[int] = sp.state["update_peers"]
    staging: int = sp.state["update_staging"]
    for line in unit.take_dirty():
        yield sp.compute(PER_LINE_INSNS)
        addr = unit.line_addr(line)
        # push any newer L2 data into DRAM, in order, before reading it
        yield from sp.sbiu.enqueue_command(
            LOCAL_CMDQ_0, CmdBusOp(OP_FLUSH, addr, unit.line_bytes))
        data = yield from fw_dram_read(sp, addr, unit.line_bytes, staging)
        runs = yield from unit.diff(line, data)
        for offset, changed in runs:
            for peer in peers:
                if peer == sp.node_id:
                    continue
                yield from sp.sbiu.enqueue_command(
                    LOCAL_CMDQ_0,
                    CmdForward(peer, CmdWriteDram(addr + offset, changed)),
                )
    # completion: everything above is in the same in-order command queue,
    # so the notification cannot pass the final forward
    yield from sp.sbiu.enqueue_command(
        LOCAL_CMDQ_0, CmdNotify(notify_queue, b"rel", src_node=sp.node_id))
    sp.stats.counter(f"{sp.name}.releases").incr()


def install_update_region(node, base: int, size: int,
                          peers: List[int]) -> DiffUnit:
    """Set up one node's side of a shared update region.

    ``base``/``size`` name the same cached DRAM range on every peer.
    An sP holds one region: a second install on the same node raises
    :class:`ConfigError`.  Returns the node's :class:`DiffUnit` for
    inspection.
    """
    from repro.mem.address import MODE_CACHED

    if "update_unit" in node.sp.state:
        raise ConfigError(
            f"node {node.node_id} already has an update region at "
            f"{node.sp.state['update_unit'].base:#x}")
    if base + size > node.user_dram_bytes:
        raise SimulationError("update region outside user DRAM")
    line = node.config.bus.line_bytes
    unit = DiffUnit(node.engine, base, size, line,
                    compare_ns_per_beat=node.config.bus.cycle_ns)
    region = Region(f"update{node.node_id}", base, size, MODE_CACHED)
    handler = UpdateRegionHandler(unit, f"niu{node.node_id}")
    node.niu.abiu.install(region, handler)
    sp = node.sp
    sp.state["update_unit"] = unit
    sp.state["update_peers"] = peers
    sp.state["update_staging"] = node.niu.alloc_ssram(line, align=8)
    register_msg_handler(sp, MSG_UPDATE_RELEASE, handle_release)
    return unit
