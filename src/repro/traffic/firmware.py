"""Server-side sP firmware for the traffic applications.

Three services run as ordinary firmware message handlers on the service
queue, exactly like the platform protocols — the paper's point that the
embedded sP makes the NIU a *programmable* application accelerator:

* **KV store** — each node is home for a shard of the key space;
  get/put run against an in-DRAM table (modelled as ``sp.state``)
  with the per-op instruction budget from
  :class:`~repro.common.config.FirmwareCostConfig`.  A PUT's value
  arrives inline, after the ``KV_REQ`` header.
* **Parameter server** — accumulates one gradient per worker per
  ``(step, block)``; when the last contribution lands it applies the
  update and fans the new weight back to every contributor, the classic
  incast/outcast hot spot the switch-combining allreduce is measured
  against.
* **Microservice fan-out** — a request at depth ``d`` performs its
  stage's service time, forwards to ``fanout`` children, and replies
  upstream when the last child completes; interior nodes key their
  pending tables by a locally unique context token so overlapping trees
  never cross wires.

``setup_traffic`` installs the handlers on one sP.  It is part of the
default firmware image (:func:`repro.firmware.install_default_firmware`),
so every sP serves all three from machine build on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from repro.common.errors import FirmwareError
from repro.common.wire import (
    KV_REP,
    KV_REQ,
    MSG_KV_REQ,
    MSG_PS_PUSH,
    MSG_USVC_REP,
    MSG_USVC_REQ,
    PS_PUSH,
    PS_REP,
    USVC_REP,
    USVC_REQ,
)
from repro.firmware.base import fw_send_to, register_msg_handler
from repro.niu.niu import SP_SERVICE_QUEUE

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event

#: KV operations (the ``op`` byte of ``MSG_KV_REQ``).
KV_GET = 0
KV_PUT = 1

#: KV reply status byte.
KV_OK = 0
KV_MISS = 1


class TrafficState:
    """Per-node state for every traffic service."""

    __slots__ = ("n_nodes", "store", "ps_weights", "ps_pending",
                 "usvc_pending", "usvc_next_ctx")

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        #: the node's KV shard: key -> value bytes.
        self.store: Dict[int, bytes] = {}
        #: parameter-server weights: block -> integer weight.
        self.ps_weights: Dict[int, int] = {}
        #: (step, block) -> [grad_sum, [(worker, reply_queue), ...]].
        self.ps_pending: Dict[Tuple[int, int], list] = {}
        #: fan-out bookkeeping: token -> [remaining, parent, reply_q, ctx].
        self.usvc_pending: Dict[int, List[int]] = {}
        self.usvc_next_ctx = 0


# ----------------------------------------------------------------------
# KV store
# ----------------------------------------------------------------------


def _on_kv_req(sp: "ServiceProcessor", src: int, payload: bytes
               ) -> Generator["Event", None, None]:
    st = sp.state["traffic"]
    op, reply_q, req_id, key, value = KV_REQ.unpack(payload)
    yield sp.compute(sp.fw.kv_op_insns)
    if op == KV_PUT:
        st.store[key] = bytes(value)
        rep = KV_REP.pack(KV_OK, req_id)
    elif op == KV_GET:
        found = st.store.get(key)
        rep = KV_REP.pack(KV_OK if found is not None else KV_MISS, req_id,
                          tail=found or b"")
    else:
        raise FirmwareError(f"unknown KV op {op}")
    sp.stats.counter(f"traffic.kv.s{sp.node_id}.served").incr()
    yield from fw_send_to(sp, src, reply_q, rep)


# ----------------------------------------------------------------------
# parameter server
# ----------------------------------------------------------------------


def _on_ps_push(sp: "ServiceProcessor", src: int, payload: bytes
                ) -> Generator["Event", None, None]:
    st = sp.state["traffic"]
    reply_q, step, block, n_workers, grad = PS_PUSH.unpack(payload)
    yield sp.compute(sp.fw.ps_push_insns)
    entry = st.ps_pending.get((step, block))
    if entry is None:
        entry = st.ps_pending[(step, block)] = [0, []]
    entry[0] += grad
    entry[1].append((src, reply_q))
    if len(entry[1]) < n_workers:
        return
    # last contribution: apply the summed gradient, broadcast the weight
    yield sp.compute(sp.fw.ps_apply_insns)
    del st.ps_pending[(step, block)]
    weight = st.ps_weights.get(block, 0) + entry[0]
    st.ps_weights[block] = weight
    sp.stats.counter(f"traffic.ps.s{sp.node_id}.steps").incr()
    rep = PS_REP.pack(step, block, weight)
    # canonical fan-out order: lockstep workers produce same-timestamp
    # arrival ties, so reply by worker id rather than by arrival order
    for worker, queue in sorted(entry[1]):
        yield from fw_send_to(sp, worker, queue, rep)


# ----------------------------------------------------------------------
# microservice fan-out
# ----------------------------------------------------------------------


def _usvc_children(me: int, fanout: int, n_nodes: int) -> List[int]:
    return [(me * fanout + j + 1) % n_nodes for j in range(fanout)]


def _on_usvc_req(sp: "ServiceProcessor", src: int, payload: bytes
                 ) -> Generator["Event", None, None]:
    st = sp.state["traffic"]
    depth, fanout, reply_q, ctx, svc_insns = USVC_REQ.unpack(payload)
    yield sp.compute(sp.fw.usvc_dispatch_insns + svc_insns)
    sp.stats.counter(f"traffic.usvc.s{sp.node_id}.stages").incr()
    if depth == 0 or fanout == 0:
        yield from fw_send_to(sp, src, reply_q, USVC_REP.pack(ctx))
        return
    children = _usvc_children(sp.node_id, fanout, st.n_nodes)
    token = st.usvc_next_ctx
    st.usvc_next_ctx = (token + 1) & 0xFFFFFFFF
    st.usvc_pending[token] = [len(children), src, reply_q, ctx]
    fwd = USVC_REQ.pack(depth - 1, fanout, SP_SERVICE_QUEUE, token,
                        svc_insns)
    for child in children:
        yield from fw_send_to(sp, child, SP_SERVICE_QUEUE, fwd)


def _on_usvc_rep(sp: "ServiceProcessor", src: int, payload: bytes
                 ) -> Generator["Event", None, None]:
    st = sp.state["traffic"]
    (token,) = USVC_REP.unpack(payload)
    entry = st.usvc_pending.get(token)
    if entry is None:
        raise FirmwareError(
            f"node {sp.node_id}: stray microservice reply (token {token})")
    yield sp.compute(sp.fw.usvc_dispatch_insns)
    entry[0] -= 1
    if entry[0] > 0:
        return
    del st.usvc_pending[token]
    yield from fw_send_to(sp, entry[1], entry[2], USVC_REP.pack(entry[3]))


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------


def setup_traffic(sp: "ServiceProcessor", n_nodes: int) -> None:
    """Install every traffic service handler on one node's sP."""
    sp.state["traffic"] = TrafficState(n_nodes)
    register_msg_handler(sp, MSG_KV_REQ, _on_kv_req)
    register_msg_handler(sp, MSG_PS_PUSH, _on_ps_push)
    register_msg_handler(sp, MSG_USVC_REQ, _on_usvc_req)
    register_msg_handler(sp, MSG_USVC_REP, _on_usvc_rep)

