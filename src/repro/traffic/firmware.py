"""Server-side sP firmware for the traffic applications.

Three services run as ordinary firmware message handlers on the service
queue, exactly like the platform protocols — the paper's point that the
embedded sP makes the NIU a *programmable* application accelerator:

* **KV store** — each node is home for a shard of the key space;
  get/put/range run against an in-DRAM table (modelled as ``sp.state``)
  with per-op instruction budgets from
  :class:`~repro.common.config.FirmwareCostConfig`.  PUT values arrive
  inline, as TagOn attachments (same handler — see
  :mod:`repro.traffic.wire`), or by DMA reference
  (``MSG_KV_PUTREF``, where the handler pulls the staged bytes through
  :func:`~repro.firmware.base.fw_dram_read`).
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

``setup_traffic`` installs the handlers on one sP; ``ensure_traffic``
covers a whole machine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from repro.common.errors import FirmwareError
from repro.firmware.base import (
    fw_dram_read,
    fw_send_to,
    fw_wait,
    register_msg_handler,
)
from repro.niu.niu import SP_SERVICE_QUEUE
from repro.traffic.wire import (
    KV_GET,
    KV_MISS,
    KV_OK,
    KV_PUT,
    KV_RANGE,
    MSG_KV_PUTREF,
    MSG_KV_REQ,
    MSG_PS_PUSH,
    MSG_USVC_REP,
    MSG_USVC_REQ,
    pack_kv_rep,
    pack_ps_rep,
    pack_usvc_rep,
    pack_usvc_req,
    unpack_kv_putref,
    unpack_kv_req,
    unpack_ps_push,
    unpack_usvc_rep,
    unpack_usvc_req,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event

#: sSRAM staging offset for DMA-referenced PUT values (distinct from the
#: DMA/blockxfer staging areas, which use low offsets).
_KV_STAGING = 0x700

#: a KV reply must fit one Basic message: 6 header bytes + value.
_KV_REPLY_VALUE_CAP = 80

#: doorbell poll period / retry bound for DMA-referenced PUTs.
_PUTREF_POLL_NS = 500.0
_PUTREF_POLL_LIMIT = 256


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
        #: (step, block) -> [grad_sum, [(origin, reply_queue), ...]].
        self.ps_pending: Dict[Tuple[int, int], list] = {}
        #: fan-out bookkeeping: token -> [remaining, origin, reply_q, ctx].
        self.usvc_pending: Dict[int, List[int]] = {}
        self.usvc_next_ctx = 0


def _state(sp: "ServiceProcessor") -> TrafficState:
    st = sp.state.get("traffic")
    if st is None:
        raise FirmwareError(
            f"traffic firmware not installed on node {sp.node_id}")
    return st


# ----------------------------------------------------------------------
# KV store
# ----------------------------------------------------------------------


def _on_kv_req(sp: "ServiceProcessor", src: int, payload: bytes
               ) -> Generator["Event", None, None]:
    st = _state(sp)
    op, reply_q, origin, req_id, key, count, value = unpack_kv_req(payload)
    if op == KV_PUT:
        yield sp.compute(sp.fw.kv_op_insns)
        st.store[key] = bytes(value)
        rep = pack_kv_rep(KV_OK, req_id)
    elif op == KV_GET:
        yield sp.compute(sp.fw.kv_op_insns)
        found = st.store.get(key)
        rep = pack_kv_rep(KV_OK if found is not None else KV_MISS, req_id,
                          found or b"")
    elif op == KV_RANGE:
        yield sp.compute(sp.fw.kv_op_insns
                         + count * sp.fw.kv_range_per_key_insns)
        joined = b"".join(st.store.get(k, b"")
                          for k in range(key, key + count))
        rep = pack_kv_rep(KV_OK, req_id, joined[:_KV_REPLY_VALUE_CAP])
    else:
        raise FirmwareError(f"unknown KV op {op}")
    sp.stats.counter(f"traffic.kv.s{sp.node_id}.served").incr()
    yield from fw_send_to(sp, origin, reply_q, rep)


def _on_kv_putref(sp: "ServiceProcessor", src: int, payload: bytes
                  ) -> Generator["Event", None, None]:
    """PUT by DMA reference: RDMA-write plus doorbell polling.

    The control message (this request) races the block-transfer data on
    the network, so the staged region carries a trailing 4-byte doorbell
    token (the request id, written *last* by the sequential block
    pieces).  The handler polls the region until the doorbell matches —
    the standard RDMA completion idiom, here in sP firmware.
    """
    st = _state(sp)
    reply_q, origin, req_id, key, addr, length = unpack_kv_putref(payload)
    yield sp.compute(sp.fw.kv_op_insns)
    for attempt in range(_PUTREF_POLL_LIMIT):
        data = yield from fw_dram_read(sp, addr, length + 4, _KV_STAGING)
        if int.from_bytes(data[length:], "big") == req_id:
            break
        yield from fw_wait(sp, sp.engine.timeout(_PUTREF_POLL_NS))
    else:
        raise FirmwareError(
            f"node {sp.node_id}: DMA PUT doorbell for req {req_id} "
            f"never rang (addr {addr:#x})")
    st.store[key] = data[:length]
    sp.stats.counter(f"traffic.kv.s{sp.node_id}.served").incr()
    yield from fw_send_to(sp, origin, reply_q, pack_kv_rep(KV_OK, req_id))


# ----------------------------------------------------------------------
# parameter server
# ----------------------------------------------------------------------


def _on_ps_push(sp: "ServiceProcessor", src: int, payload: bytes
                ) -> Generator["Event", None, None]:
    st = _state(sp)
    reply_q, origin, step, block, n_workers, grad = unpack_ps_push(payload)
    yield sp.compute(sp.fw.ps_push_insns)
    entry = st.ps_pending.get((step, block))
    if entry is None:
        entry = st.ps_pending[(step, block)] = [0, []]
    entry[0] += grad
    entry[1].append((origin, reply_q))
    if len(entry[1]) < n_workers:
        return
    # last contribution: apply the summed gradient, broadcast the weight
    yield sp.compute(sp.fw.ps_apply_insns)
    del st.ps_pending[(step, block)]
    weight = st.ps_weights.get(block, 0) + entry[0]
    st.ps_weights[block] = weight
    sp.stats.counter(f"traffic.ps.s{sp.node_id}.steps").incr()
    rep = pack_ps_rep(step, block, weight)
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
    st = _state(sp)
    depth, fanout, reply_q, origin, ctx, svc_insns = unpack_usvc_req(payload)
    yield sp.compute(sp.fw.usvc_dispatch_insns + svc_insns)
    sp.stats.counter(f"traffic.usvc.s{sp.node_id}.stages").incr()
    if depth == 0 or fanout == 0:
        yield from fw_send_to(sp, origin, reply_q, pack_usvc_rep(ctx))
        return
    children = _usvc_children(sp.node_id, fanout, st.n_nodes)
    token = st.usvc_next_ctx
    st.usvc_next_ctx = (token + 1) & 0xFFFFFFFF
    st.usvc_pending[token] = [len(children), origin, reply_q, ctx]
    fwd = pack_usvc_req(depth - 1, fanout, SP_SERVICE_QUEUE, sp.node_id,
                        token, svc_insns)
    for child in children:
        yield from fw_send_to(sp, child, SP_SERVICE_QUEUE, fwd)


def _on_usvc_rep(sp: "ServiceProcessor", src: int, payload: bytes
                 ) -> Generator["Event", None, None]:
    st = _state(sp)
    token = unpack_usvc_rep(payload)
    entry = st.usvc_pending.get(token)
    if entry is None:
        raise FirmwareError(
            f"node {sp.node_id}: stray microservice reply (token {token})")
    yield sp.compute(sp.fw.usvc_dispatch_insns)
    entry[0] -= 1
    if entry[0] > 0:
        return
    del st.usvc_pending[token]
    yield from fw_send_to(sp, entry[1], entry[2], pack_usvc_rep(entry[3]))


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------


def setup_traffic(sp: "ServiceProcessor", n_nodes: int) -> None:
    """Install every traffic service handler on one node's sP."""
    if "traffic" in sp.state:
        return
    sp.state["traffic"] = TrafficState(n_nodes)
    register_msg_handler(sp, MSG_KV_REQ, _on_kv_req)
    register_msg_handler(sp, MSG_KV_PUTREF, _on_kv_putref)
    register_msg_handler(sp, MSG_PS_PUSH, _on_ps_push)
    register_msg_handler(sp, MSG_USVC_REQ, _on_usvc_req)
    register_msg_handler(sp, MSG_USVC_REP, _on_usvc_rep)


def ensure_traffic(machine: "StarTVoyager") -> None:
    """Install the traffic firmware machine-wide (idempotent)."""
    for node in machine.nodes:
        if "traffic" not in node.sp.state:
            setup_traffic(node.sp, machine.config.n_nodes)
