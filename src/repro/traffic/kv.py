"""Distributed KV store: client side.

Keys are sharded across every node by a consistent hash (CRC32 — NOT
Python's salted ``hash()``, which would change between interpreter
runs); each node's sP serves its shard through the firmware handlers in
:mod:`repro.traffic.firmware`.  A client node runs an open-loop pair of
aP programs: a sender replaying its arrival schedule and a receiver
matching replies.

The sender/receiver split leans on a :class:`~repro.mp.basic.BasicPort`
property: the send path touches only the tx pointer mirrors and the
receive path only the rx mirrors, so one sender process and one
receiver process may safely share a port.  Traffic claims tx queue 1 /
rx logical queue 1 — queue 0 belongs to ad-hoc user programs and queue
2 to MiniMPI, so all three can coexist in one experiment.

Every request is one Basic message; a PUT carries its value inline,
after the ``KV_REQ`` header.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Sequence

from repro.common.errors import ConfigError
from repro.common.wire import KV_REP, KV_REQ
from repro.mp.basic import BasicPort
from repro.niu.niu import SP_SERVICE_QUEUE
from repro.traffic.firmware import KV_GET, KV_PUT
from repro.traffic.load import TraceRecord
from repro.traffic.slo import DEFAULT_SLO_NS, SloRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager
    from repro.node.ap import ApApi
    from repro.node.node import NodeBoard
    from repro.sim.events import Event

#: the traffic layer's queue claim (0 = ad-hoc users, 2 = MiniMPI).
TX_INDEX = 1
RX_LOGICAL = 1


def home_node(key: int, n_nodes: int) -> int:
    """The node serving ``key`` (CRC32 consistent hash)."""
    return zlib.crc32(key.to_bytes(4, "big")) % n_nodes  # repro: allow ARCH003 -- hash input


def _value_bytes(req_id: int, size: int) -> bytes:
    """Deterministic value content derived from the request id."""
    return (req_id.to_bytes(4, "big")  # repro: allow ARCH003 -- value content
            * ((size + 3) // 4))[:size]


class KvClient:
    """One node's KV client: issues a trace, accounts every reply."""

    def __init__(self, machine: "StarTVoyager", node: "NodeBoard", *,
                 slo_ns: float = DEFAULT_SLO_NS) -> None:
        self.machine = machine
        self.node = node
        self.n_nodes = machine.config.n_nodes
        self.port = BasicPort(node, TX_INDEX, RX_LOGICAL)
        self.slo = SloRecorder(node, "kv", slo_ns)
        #: req_id -> scheduled arrival time.
        self.inflight: Dict[int, float] = {}
        self._next_req = 0

    def _issue(self, api: "ApApi", rec: TraceRecord
               ) -> Generator["Event", None, None]:
        req_id = self._next_req
        self._next_req += 1
        self.inflight[req_id] = rec.time_ns
        self.slo.offer()
        if rec.op == "get":
            op, value = KV_GET, b""
        elif rec.op == "put":
            op, value = KV_PUT, _value_bytes(req_id, rec.size)
        else:
            raise ConfigError(f"unknown KV trace op {rec.op!r}")
        yield from self.port.send_to(
            api, home_node(rec.key, self.n_nodes), SP_SERVICE_QUEUE,
            KV_REQ.pack(op, RX_LOGICAL, req_id, rec.key, tail=value))

    def _complete(self, api: "ApApi", payload: bytes) -> None:
        _status, req_id, _value = KV_REP.unpack(payload)
        sched = self.inflight.pop(req_id)
        self.slo.complete(api.now - sched)

    # -- driver programs -------------------------------------------------------

    def open_loop(self, records: Sequence[TraceRecord]
                  ) -> List[Callable[["ApApi"], Generator]]:
        """Open-loop sender+receiver program pair for this node's trace.

        The sender replays the schedule (sleeping up to each arrival,
        *never* waiting for replies); the receiver matches completions
        against the scheduled times, so queueing delay anywhere in the
        system lands in the measured latency.
        """
        total = len(records)

        def sender(api: "ApApi"):
            for rec in records:
                if rec.time_ns > api.now:
                    yield from api.sleep(rec.time_ns - api.now)
                yield from self._issue(api, rec)

        def receiver(api: "ApApi"):
            for _ in range(total):
                _src, payload = yield from self.port.recv(api)
                self._complete(api, payload)

        return [sender, receiver]
