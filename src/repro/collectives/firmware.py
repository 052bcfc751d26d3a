"""The ``CollectiveUnit``: sP firmware that runs collectives in the NIU.

"Library functions may also run on the sP" — this module is the paper's
extensibility claim exercised end to end: collectives move off the aP
into firmware without touching the core hardware.  Each node's sP holds
per-``(reply queue, sequence)`` combining state along a spanning tree
(:class:`~repro.collectives.plan.TreePlan`); every rank of one
communicator names the same reply queue, so two communicators on
different queues never fold into each other:

* the aP contributes with **one** Basic enqueue to the local sP service
  queue (``MSG_COLL_REQ``);
* the sP combines its aP's contribution with its children's subtree
  contributions *as they arrive* and forwards a single combined
  ``MSG_COLL_UP`` message to its tree parent — one message per tree edge
  instead of N-1 messages through one root;
* the root sP (node 0) turns the fully combined value around as
  ``MSG_COLL_DOWN`` messages that fan back out over the tree, and every
  sP delivers the result into its local aP's receive queue, formatted
  as a mini-MPI fragment so the aP's ordinary tag-matched dequeue
  completes the collective.

Contributions are summed in arrival order, the one fold every combining
path in the machine applies, so a ``COLL`` message carries no
operator.

The unit is part of the default firmware image
(:func:`repro.firmware.install_default_firmware`): machine assembly
installs it on every sP with the machine's one binomial tree rooted at
node 0, and the plan never changes while the machine lives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, Optional, Tuple

from repro.collectives.plan import TreePlan
from repro.common.errors import FirmwareError
from repro.common.wire import (
    COLL,
    MPI_FRAG,
    MSG_COLL_DOWN,
    MSG_COLL_REQ,
    MSG_COLL_UP,
    VALUE,
)
from repro.firmware.base import fw_send_to, register_msg_handler
from repro.niu.niu import SP_SERVICE_QUEUE

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event

#: collective kinds (the ``kind`` byte of a ``COLL`` message).
KIND_BARRIER = 0
KIND_BCAST = 1
KIND_ALLREDUCE = 3


class _Pending:
    """Combining state of one in-flight collective at one sP."""

    __slots__ = ("kind", "tag", "arrived", "want", "acc")

    def __init__(self, kind: int, tag: int, want: int) -> None:
        self.kind = kind
        self.tag = tag
        self.arrived = 0
        self.want = want
        self.acc: Optional[int] = None


class CollectiveState:
    """Per-node collective firmware state: the tree and in-flight calls.

    ``plan`` is built and validated once at machine assembly and shared
    read-only by every node of the machine."""

    def __init__(self, plan: TreePlan) -> None:
        self.plan = plan
        #: in-flight collectives: (reply_queue, seq) -> _Pending.
        self.pending: Dict[Tuple[int, int], _Pending] = {}


def setup_collectives(sp: "ServiceProcessor", plan: TreePlan) -> None:
    """Install the CollectiveUnit on one node's sP."""
    sp.state["collectives"] = CollectiveState(plan)
    register_msg_handler(sp, MSG_COLL_REQ, on_coll_request)
    register_msg_handler(sp, MSG_COLL_UP, on_coll_up)
    register_msg_handler(sp, MSG_COLL_DOWN, on_coll_down)


# ----------------------------------------------------------------------
# firmware handlers
# ----------------------------------------------------------------------


def on_coll_request(sp: "ServiceProcessor", src: int, payload: bytes
                    ) -> Generator["Event", None, None]:
    """``MSG_COLL_REQ``: the local aP's single enqueue."""
    yield sp.compute(sp.fw.coll_request_insns)
    st = sp.state["collectives"]
    _type, kind, seq, reply_queue, tag, data = COLL.unpack(payload)
    if kind == KIND_BCAST:
        # broadcast has no combining phase: the root's request starts the
        # down-sweep immediately
        if sp.node_id != 0:
            raise FirmwareError(
                f"{sp.name}: bcast request at non-root rank {sp.node_id}"
            )
        yield from _down_sweep(sp, st, kind, seq, reply_queue, tag, data)
        return
    yield from _contribute(sp, st, kind, seq, reply_queue, tag, data)


def on_coll_up(sp: "ServiceProcessor", src: int, payload: bytes
               ) -> Generator["Event", None, None]:
    """``MSG_COLL_UP``: a child subtree's combined contribution."""
    yield sp.compute(sp.fw.coll_combine_insns)
    _type, kind, seq, reply_queue, tag, data = COLL.unpack(payload)
    yield from _contribute(sp, sp.state["collectives"], kind, seq,
                           reply_queue, tag, data)


def on_coll_down(sp: "ServiceProcessor", src: int, payload: bytes
                 ) -> Generator["Event", None, None]:
    """``MSG_COLL_DOWN``: the result fanning back out over the tree."""
    yield sp.compute(sp.fw.coll_forward_insns)
    _type, kind, seq, reply_queue, tag, data = COLL.unpack(payload)
    yield from _down_sweep(sp, sp.state["collectives"], kind, seq,
                           reply_queue, tag, data)


# ----------------------------------------------------------------------
# the combining tree
# ----------------------------------------------------------------------


def _contribute(sp: "ServiceProcessor", st: CollectiveState, kind: int,
                seq: int, reply_queue: int, tag: int, data: bytes
                ) -> Generator["Event", None, None]:
    """Fold one decoded contribution (local REQ or child UP) into
    pending state, keyed by (reply_queue, seq)."""
    me = sp.node_id
    key = (reply_queue, seq)
    pend = st.pending.get(key)
    if pend is None:
        # children's UPs + the local REQ
        want = len(st.plan.children[me]) + 1
        pend = st.pending[key] = _Pending(kind, tag, want)
    if data:
        (value,) = VALUE.unpack(data)
        if pend.acc is None:
            pend.acc = value
        else:
            yield sp.compute(sp.fw.coll_combine_insns)
            pend.acc += value
    pend.arrived += 1
    if pend.arrived < pend.want:
        return
    # subtree complete
    del st.pending[key]
    data = VALUE.pack(pend.acc) if pend.acc is not None else b""
    parent = st.plan.parent[me]
    if parent is not None:
        up = COLL.pack(MSG_COLL_UP, pend.kind, seq, reply_queue, pend.tag,
                       tail=data)
        yield from fw_send_to(sp, parent, SP_SERVICE_QUEUE, up)
        return
    # fully combined at the root
    sp.stats.counter(f"{sp.name}.coll_completed").incr()
    yield from _down_sweep(sp, st, pend.kind, seq, reply_queue, pend.tag,
                           data)


def _down_sweep(sp: "ServiceProcessor", st: CollectiveState, kind: int,
                seq: int, reply_queue: int, tag: int, data: bytes
                ) -> Generator["Event", None, None]:
    """Forward the result to tree children and the local aP."""
    for child in st.plan.children[sp.node_id]:
        down = COLL.pack(MSG_COLL_DOWN, kind, seq, reply_queue, tag,
                         tail=data)
        yield from fw_send_to(sp, child, SP_SERVICE_QUEUE, down)
    yield from _deliver(sp, tag, reply_queue, data)


def _deliver(sp: "ServiceProcessor", tag: int, reply_queue: int,
             data: bytes) -> Generator["Event", None, None]:
    """Hand the result to the local aP as one mini-MPI fragment."""
    frag = MPI_FRAG.pack(tag, len(data), 0, tail=data)
    yield from fw_send_to(sp, sp.node_id, reply_queue, frag)
    sp.stats.counter(f"{sp.name}.coll_delivered").incr()
