"""Microservice fan-out: request trees with per-stage service times.

A request enters at a front-end service (chosen by the trace key),
performs its stage's service time on that node's sP, fans out to
``fanout`` children, and completes when the whole depth-``d`` tree has
replied — the RPC shape of a modern microservice graph, where the
end-to-end tail is governed by the *slowest leaf* (tail-at-scale).
Server-side mechanics live in :mod:`repro.traffic.firmware`; this
module is the client: an open-loop sender/receiver pair exactly like
the KV client's, sharing the traffic queue claim (tx 1 / rx 1).

The SLO section reports the app as ``usvc``: one request offered per
tree, completed when the root replies, latency measured from the
scheduled arrival.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Sequence

from repro.common.wire import USVC_REP, USVC_REQ
from repro.mp.basic import BasicPort
from repro.niu.niu import SP_SERVICE_QUEUE
from repro.traffic.kv import RX_LOGICAL, TX_INDEX
from repro.traffic.load import TraceRecord
from repro.traffic.slo import SloRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager
    from repro.node.ap import ApApi
    from repro.node.node import NodeBoard

#: default end-to-end SLO for a fan-out tree (100 µs of simulated time).
DEFAULT_TREE_SLO_NS = 100_000.0


class UsvcClient:
    """One node's microservice client: issues fan-out trees."""

    def __init__(self, machine: "StarTVoyager", node: "NodeBoard", *,
                 depth: int = 2, fanout: int = 2, svc_insns: int = 200,
                 slo_ns: float = DEFAULT_TREE_SLO_NS) -> None:
        self.machine = machine
        self.node = node
        self.n_nodes = machine.config.n_nodes
        self.depth = depth
        self.fanout = fanout
        self.svc_insns = svc_insns
        self.port = BasicPort(node, TX_INDEX, RX_LOGICAL)
        self.slo = SloRecorder(node, "usvc", slo_ns)
        self.inflight: Dict[int, float] = {}
        self._next_req = 0

    def _issue(self, api: "ApApi", rec: TraceRecord) -> Generator:
        req_id = self._next_req
        self._next_req += 1
        self.inflight[req_id] = rec.time_ns
        self.slo.offer()
        entry = rec.key % self.n_nodes
        payload = USVC_REQ.pack(self.depth, self.fanout, RX_LOGICAL,
                                req_id, self.svc_insns)
        yield from self.port.send_to(api, entry, SP_SERVICE_QUEUE, payload)

    def open_loop(self, records: Sequence[TraceRecord]
                  ) -> List[Callable[["ApApi"], Generator]]:
        """Open-loop sender+receiver pair for this node's tree trace."""
        total = len(records)

        def sender(api: "ApApi"):
            for rec in records:
                if rec.time_ns > api.now:
                    yield from api.sleep(rec.time_ns - api.now)
                yield from self._issue(api, rec)

        def receiver(api: "ApApi"):
            for _ in range(total):
                _src, payload = yield from self.port.recv(api)
                (ctx,) = USVC_REP.unpack(payload)
                sched = self.inflight.pop(ctx)
                self.slo.complete(api.now - sched)

        return [sender, receiver]
