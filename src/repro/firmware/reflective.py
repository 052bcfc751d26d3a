"""Reflective-memory emulation (the §5 "Extending Default Mechanisms" demo).

"StarT-Voyager could emulate Shrimp's and Memory Channel's reflective
memory communication support.  The default StarT-Voyager hardware is
sufficient for the sP to implement this functionality."

A *reflective window* is a region of local DRAM whose stores are
propagated to the same offsets of subscriber nodes' windows.  The model
implements it exactly as the paper sketches: a custom aBIU handler (an
installed "FPGA state machine") captures stores to the window, completes
the bus operation immediately, and forwards the captured (offset, data)
to firmware; firmware fans the write out as ``CmdWriteDram`` command
packets that land in each subscriber's DRAM with no remote firmware
involvement.

This module is the repo's working proof that a *new* communication
mechanism can be added to the platform without touching CTRL.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from repro.bus.ops import OP_WRITE, OP_WRITE_LINE, BusTransaction
from repro.bus.snoop import SNOOP_CLAIM, SNOOP_OK, SnoopResult
from repro.common.errors import ConfigError, SimulationError
from repro.mem.address import Region
from repro.niu.abiu import BusHandler
from repro.niu.commands import LOCAL_CMDQ_0, CmdForward, CmdWriteDram

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event

#: firmware cost of reflecting one captured store.
REFLECT_INSNS = 70


class ReflectiveWindowHandler(BusHandler):
    """Captures stores to the reflective window and forwards them to sP.

    Loads pass through to DRAM untouched (the window is ordinary memory);
    only stores are reflected.
    """

    handler_name = "reflective"

    def __init__(self, ctrl, region: Region) -> None:
        self.ctrl = ctrl
        self.region = region
        self.captured = 0

    def decide(self, txn: BusTransaction) -> SnoopResult:
        if txn.op in (OP_WRITE, OP_WRITE_LINE):
            return SNOOP_CLAIM
        return SNOOP_OK  # reads served by DRAM as usual

    def serve(self, txn: BusTransaction
              ) -> Generator["Event", None, Optional[bytes]]:
        yield self.ctrl.op_ns
        self.captured += 1
        # the write must still reach local DRAM: the handler claimed the
        # tenure, so it applies the store itself (zero extra bus traffic,
        # as the FPGA would merge this into the same tenure)
        offset = txn.addr - self.region.base
        self.ctrl.post_sp_event(("reflect", offset, bytes(txn.data)))  # type: ignore[arg-type]
        self._apply_local(txn)
        return None

    def _apply_local(self, txn: BusTransaction) -> None:
        # write-through into the local DRAM backing (the claimed tenure
        # replaced the memory controller's)
        self._dram.poke(txn.addr, txn.data)  # type: ignore[arg-type]

    #: set by install_reflective (needs the node's DRAM object).
    _dram = None


def handle_reflect(sp: "ServiceProcessor", event: Tuple
                   ) -> Generator["Event", None, None]:
    """Fan a captured store out to every subscriber's window."""
    _kind, offset, data = event
    yield sp.compute(REFLECT_INSNS)
    window_base, subscribers = sp.state["reflective"]
    for node in subscribers:
        if node == sp.node_id:
            continue
        yield from sp.sbiu.enqueue_command(
            LOCAL_CMDQ_0,
            CmdForward(node, CmdWriteDram(window_base + offset, data)),
        )


def install_reflective(node, window_base: int, window_bytes: int,
                       subscribers: List[int]) -> ReflectiveWindowHandler:
    """Set up a reflective window on one node.

    ``window_base`` must name the same DRAM range on every subscriber
    (symmetric windows, as in Memory Channel).  An sP holds one window:
    a second install on the same node raises :class:`ConfigError`.
    Returns the installed handler for test introspection.
    """
    from repro.mem.address import MODE_UNCACHED

    if "reflective" in node.sp.state:
        raise ConfigError(
            f"node {node.node_id} already has a reflective window "
            f"at {node.sp.state['reflective'][0]:#x}")
    if window_base + window_bytes > node.user_dram_bytes:
        raise SimulationError("reflective window outside user DRAM")
    # the window must be uncached so every store appears on the bus —
    # Shrimp/Memory Channel map their windows write-through for the same
    # reason.  Loads keep hitting DRAM through the carved region's owner.
    region = node.address_map.carve(
        f"reflective{node.node_id}", window_base, window_bytes,
        MODE_UNCACHED,
    )
    handler = ReflectiveWindowHandler(node.ctrl, region)
    handler._dram = node.dram
    node.niu.abiu.install(region, handler)
    node.sp.state["reflective"] = (window_base, subscribers)
    node.sp.register("reflect", handle_reflect)
    return handler
