"""sP firmware for the scalable-synchronization library.

Three services, all running on the node's embedded service processor
(the paper's "library functions may also run on the sP" claim, applied
to synchronization):

* **endpoint cells** (``MSG_SYNC_REQ``) — a serialized fetch-and-add
  server for the cells homed at this node.  This is the pure-endpoint
  fallback every primitive in :mod:`repro.sync.api` degrades to when
  the machine has no network or in-switch combining is off; it is also
  the hot-spot baseline the combining fabric is measured against.
* **central collective** (``MSG_SYNC_CBAR``) — the counting barrier /
  serialized allreduce: every member sends one arrival to the group's
  home sP, which sums values as they arrive and unicasts the result
  back out.  Deliberately O(N) at one node — the classic hot spot.
* **leaf inject** (``MSG_SYNC_INJECT``) — the bridge into in-network
  computing: the aP hands a packed :class:`~repro.net.combine.SyncTag`
  to its local sP, which stamps the fabric-facing fields and injects
  the tagged packet through the CTRL's TX path.  The sP is the
  combining tree's *leaf*: switch-resident combining starts one hop
  above it.

The cells and the central collective sum, like every other combining
path in the machine, so ``SYNC_REQ`` and ``SYNC_CBAR`` carry no
operator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

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
from repro.net.combine import SyncTag

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event


class _CentralOp:
    """One in-flight central collective at the home sP."""

    __slots__ = ("waiters", "acc", "want")

    def __init__(self, want: int) -> None:
        self.waiters: List[Tuple[int, int]] = []
        self.acc = 0
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
    """Install the sync firmware on one node's sP (part of the default
    image, :func:`repro.firmware.install_default_firmware`)."""
    sp.state["sync"] = SyncFwState()
    register_msg_handler(sp, MSG_SYNC_REQ, on_sync_req)
    register_msg_handler(sp, MSG_SYNC_CBAR, on_sync_cbar)
    register_msg_handler(sp, MSG_SYNC_INJECT, on_sync_inject)


# ----------------------------------------------------------------------
# handlers
# ----------------------------------------------------------------------


def on_sync_req(sp: "ServiceProcessor", src: int, payload: bytes
                ) -> Generator["Event", None, None]:
    """``MSG_SYNC_REQ``: serialized endpoint fetch-and-add."""
    yield sp.compute(sp.fw.sync_cell_insns)
    st = sp.state["sync"]
    group, cell, req, reply_queue, value = SYNC_REQ.unpack(payload)
    key = (group, cell)
    old = st.cells.get(key, 0)
    st.cells[key] = old + value
    sp.stats.counter(f"{sp.name}.sync_cell_ops").incr()
    yield from fw_send_to(sp, src, reply_queue,
                          SYNC_REP.pack(req, old))


def on_sync_cbar(sp: "ServiceProcessor", src: int, payload: bytes
                 ) -> Generator["Event", None, None]:
    """``MSG_SYNC_CBAR``: central counting barrier / serial allreduce."""
    yield sp.compute(sp.fw.sync_barrier_insns)
    st = sp.state["sync"]
    group, seq, n, reply_queue, value = SYNC_CBAR.unpack(payload)
    key = (group, seq)
    pend = st.central.get(key)
    if pend is None:
        pend = st.central[key] = _CentralOp(n)
    pend.acc += value
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
    "setup_sync",
]
