"""sP firmware for the scalable-synchronization library.

Three services, all running on the node's embedded service processor
(the paper's "library functions may also run on the sP" claim, applied
to synchronization):

* **endpoint cells** (``MSG_SYNC_REQ``) — a serialized fetch-and-op
  server for the cells homed at this node.  This is the pure-endpoint
  fallback every primitive in :mod:`repro.sync.api` degrades to when
  the machine has no network or in-switch combining is off; it is also
  the hot-spot baseline the combining fabric is measured against.
* **central collective** (``MSG_SYNC_CBAR``) — the counting barrier /
  serialized allreduce: every member sends one arrival to the group's
  home sP, which folds values as they arrive and unicasts the result
  back out.  Deliberately O(N) at one node — the classic hot spot.
* **leaf inject** (``MSG_SYNC_INJECT``) — the bridge into in-network
  computing: the aP hands a packed :class:`~repro.net.combine.SyncTag`
  to its local sP, which stamps the fabric-facing fields and injects
  the tagged packet through the CTRL's TX path.  The sP is the
  combining tree's *leaf*: switch-resident combining starts one hop
  above it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from repro.common.errors import FirmwareError
from repro.common.wire import (
    MSG_SYNC_CBAR,
    MSG_SYNC_INJECT,
    MSG_SYNC_REQ,
    SYNC_CBAR,
    SYNC_INJECT,
    SYNC_REP,
    SYNC_REQ,
    SYNC_TREE_REP,
)
from repro.firmware.base import fw_send_to, register_msg_handler
from repro.net.combine import SyncTag, apply_op

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event


class _CentralOp:
    """One in-flight central collective at the home sP."""

    __slots__ = ("waiters", "acc", "have_acc", "op", "want")

    def __init__(self, op: int, want: int) -> None:
        self.waiters: List[Tuple[int, int]] = []
        self.acc = 0
        self.have_acc = False
        self.op = op
        self.want = want


class SyncFwState:
    """Per-node sync firmware state."""

    __slots__ = ("cells", "central")

    def __init__(self) -> None:
        #: endpoint-mode cells homed here: (group, cell) -> value.
        self.cells: Dict[Tuple[int, int], int] = {}
        #: central collectives in flight: (group, seq) -> _CentralOp.
        self.central: Dict[Tuple[int, int], _CentralOp] = {}


def setup_sync(sp: "ServiceProcessor") -> None:
    """Install the sync firmware on one node's sP (idempotent)."""
    if "sync" in sp.state:
        return
    sp.state["sync"] = SyncFwState()
    register_msg_handler(sp, MSG_SYNC_REQ, on_sync_req)
    register_msg_handler(sp, MSG_SYNC_CBAR, on_sync_cbar)
    register_msg_handler(sp, MSG_SYNC_INJECT, on_sync_inject)


def ensure_sync_firmware(machine) -> None:
    """Install the sync firmware cluster-wide (idempotent)."""
    for node in machine.nodes:
        setup_sync(node.sp)


def _state(sp: "ServiceProcessor") -> SyncFwState:
    st = sp.state.get("sync")
    if st is None:
        raise FirmwareError(f"{sp.name}: sync firmware not installed")
    return st


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------


def on_sync_req(sp: "ServiceProcessor", src: int, payload: bytes
                ) -> Generator["Event", None, None]:
    """``MSG_SYNC_REQ``: serialized endpoint fetch-and-op."""
    yield sp.compute(sp.fw.sync_cell_insns)
    st = _state(sp)
    group, cell, op, req, reply_queue, value, _aux = SYNC_REQ.unpack(payload)
    key = (group, cell)
    old = st.cells.get(key, 0)
    st.cells[key] = apply_op(op, old, value)
    sp.stats.counter(f"{sp.name}.sync_cell_ops").incr()
    yield from fw_send_to(sp, src, reply_queue,
                          SYNC_REP.pack(req, True, old))


def on_sync_cbar(sp: "ServiceProcessor", src: int, payload: bytes
                 ) -> Generator["Event", None, None]:
    """``MSG_SYNC_CBAR``: central counting barrier / serial allreduce."""
    yield sp.compute(sp.fw.sync_barrier_insns)
    st = _state(sp)
    group, seq, n, reply_queue, op, value = SYNC_CBAR.unpack(payload)
    key = (group, seq)
    pend = st.central.get(key)
    if pend is None:
        pend = st.central[key] = _CentralOp(op, n)
    if pend.have_acc:
        pend.acc = apply_op(op, pend.acc, value)
    else:
        pend.acc = value
        pend.have_acc = True
    pend.waiters.append((src, reply_queue))
    if len(pend.waiters) < pend.want:
        return
    # everyone arrived: release serially (the hot-spot cost is the point)
    del st.central[key]
    sp.stats.counter(f"{sp.name}.sync_central_ops").incr()
    rep = SYNC_TREE_REP.pack(group, seq, pend.acc)
    for member, rq in pend.waiters:
        yield from fw_send_to(sp, member, rq, rep)


def on_sync_inject(sp: "ServiceProcessor", src: int, payload: bytes
                   ) -> Generator["Event", None, None]:
    """``MSG_SYNC_INJECT``: leaf of the combining tree — into the fabric."""
    yield sp.compute(sp.fw.sync_inject_insns)
    (raw,) = SYNC_INJECT.unpack(payload)
    tag = SyncTag.unpack(raw)
    tag.origin = sp.node_id
    sp.stats.counter(f"{sp.name}.sync_injects").incr()
    yield from sp.ctrl.emit_sync(tag)


__all__ = [
    "SyncFwState",
    "ensure_sync_firmware",
    "setup_sync",
]
