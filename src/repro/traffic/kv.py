"""Distributed KV store: client side.

Keys are sharded across every node by a consistent hash (CRC32 — NOT
Python's salted ``hash()``, which would change between interpreter
runs); each node's sP serves its shard through the firmware handlers in
:mod:`repro.traffic.firmware`.  A client node runs an open-loop pair of
aP programs (a sender replaying its arrival schedule and a receiver
matching replies) or a single closed-loop windowed program.

The sender/receiver split leans on a :class:`~repro.mp.basic.BasicPort`
property: the send path touches only the tx pointer mirrors and the
receive path only the rx mirrors, so one sender process and one
receiver process may safely share a port.  Traffic claims tx queue 1 /
rx logical queue 1 — queue 0 belongs to ad-hoc user programs and queue
2 to MiniMPI, so all three can coexist in one experiment.

PUT values travel three ways (``transport=``):

* ``"basic"`` — inline in the request payload;
* ``"tagon"`` — as a TagOn attachment the NIU appends at delivery
  (identical server path; values are padded to the 48-byte TagOn unit);
* ``"dma"`` — bulk data by RDMA-write into a per-request staging slot
  on the home node, followed by a by-reference PUT; the server polls
  the slot's trailing doorbell token, so the control message may freely
  race the block-transfer data.

Any transport can additionally ride ``reliable=True`` (firmware
go-back-N) for the *request* leg, except ``"tagon"`` — the reliable
path cannot carry attachments.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Sequence

from repro.common.errors import ConfigError
from repro.common.wire import DMA_REQ, KV_PUTREF, KV_REP, KV_REQ
from repro.mp.basic import BasicPort
from repro.niu.niu import NOTIFY_QUEUE, SP_SERVICE_QUEUE
from repro.traffic.firmware import KV_GET, KV_PUT, KV_RANGE, ensure_traffic
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

#: DRAM staging for DMA PUTs: source ring on the client, destination
#: slots on the server, well above the addresses the platform tests use
#: (DRAM is 8 MB; 64 clients x 32 slots x 128 B = 256 KB).
_DMA_SRC_BASE = 0x200000
_DMA_DST_BASE = 0x300000
_DMA_RING = 32
_DMA_SLOT = 128


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
                 slo_ns: float = DEFAULT_SLO_NS, transport: str = "basic",
                 reliable: bool = False, range_count: int = 4) -> None:
        if transport not in ("basic", "tagon", "dma"):
            raise ConfigError(f"unknown KV transport {transport!r}")
        if transport == "tagon" and reliable:
            raise ConfigError(
                "reliable delivery cannot carry TagOn attachments")
        ensure_traffic(machine)
        self.machine = machine
        self.node = node
        self.me = node.node_id
        self.n_nodes = machine.config.n_nodes
        self.transport = transport
        self.reliable = reliable
        self.range_count = range_count
        self.port = BasicPort(node, TX_INDEX, RX_LOGICAL)
        self.slo = SloRecorder(node, "kv", slo_ns)
        #: req_id -> scheduled arrival time (open loop) / send time.
        self.inflight: Dict[int, float] = {}
        self._next_req = 0
        self._tagon_staging = (node.niu.alloc_asram(80, align=16)
                               if transport == "tagon" else 0)

    # -- request plumbing ------------------------------------------------------

    def _send(self, api: "ApApi", home: int, payload: bytes, tagon=None
              ) -> Generator["Event", None, None]:
        yield from self.port.send_to(api, home, SP_SERVICE_QUEUE, payload,
                                     reliable=self.reliable, tagon=tagon)

    def _issue(self, api: "ApApi", rec: TraceRecord, sched_ns: float
               ) -> Generator["Event", None, None]:
        req_id = self._next_req
        self._next_req += 1
        self.inflight[req_id] = sched_ns
        self.slo.offer()
        home = home_node(rec.key, self.n_nodes)
        if rec.op == "get":
            yield from self._send(api, home, KV_REQ.pack(
                KV_GET, RX_LOGICAL, req_id, rec.key, 0))
        elif rec.op == "range":
            yield from self._send(api, home, KV_REQ.pack(
                KV_RANGE, RX_LOGICAL, req_id, rec.key, self.range_count))
        elif rec.op == "put":
            yield from self._put(api, home, req_id, rec)
        else:
            raise ConfigError(f"unknown KV trace op {rec.op!r}")

    def _put(self, api: "ApApi", home: int, req_id: int, rec: TraceRecord
             ) -> Generator["Event", None, None]:
        value = _value_bytes(req_id, rec.size)
        if self.transport == "basic":
            yield from self._send(api, home, KV_REQ.pack(
                KV_PUT, RX_LOGICAL, req_id, rec.key, 0, tail=value))
        elif self.transport == "tagon":
            tagon = yield from self.port.stage_tagon(
                api, self._tagon_staging, value)
            yield from self._send(api, home, KV_REQ.pack(
                KV_PUT, RX_LOGICAL, req_id, rec.key, 0), tagon=tagon)
        else:  # dma
            # stage value + doorbell locally, RDMA it into the home's
            # per-request slot, then race the by-reference PUT after it
            src = _DMA_SRC_BASE + (req_id % _DMA_RING) * _DMA_SLOT
            dst = _DMA_DST_BASE + (
                self.me * _DMA_RING + req_id % _DMA_RING) * _DMA_SLOT
            staged = value + req_id.to_bytes(4, "big")  # repro: allow ARCH003 -- DRAM doorbell
            yield from api.store(src, staged)
            dma = DMA_REQ.pack(src, home, dst, len(staged), NOTIFY_QUEUE, 3)
            # the DMA request is a loopback hop into the local sP —
            # lossless, so it never needs the reliable path
            yield from self.port.send_to(api, self.me, SP_SERVICE_QUEUE, dma)
            yield from self._send(api, home, KV_PUTREF.pack(
                RX_LOGICAL, req_id, rec.key, dst, len(value)))

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
                yield from self._issue(api, rec, rec.time_ns)

        def receiver(api: "ApApi"):
            notify = (BasicPort(self.node, 0, NOTIFY_QUEUE)
                      if self.transport == "dma" else None)
            done = 0
            while done < total:
                if notify is None:
                    _src, payload = yield from self.port.recv(api)
                    self._complete(api, payload)
                    done += 1
                    continue
                # DMA mode: also drain the (unused) transfer-complete
                # notifications so NOTIFY_QUEUE never backs up
                msg = yield from self.port.poll(api)
                if msg is not None:
                    self._complete(api, msg[1])
                    done += 1
                else:
                    yield from notify.poll(api)
                    yield from api.compute(50)

        return [sender, receiver]

    def closed_loop(self, records: Sequence[TraceRecord], window: int = 4
                    ) -> Callable[["ApApi"], Generator]:
        """A windowed closed-loop client: at most ``window`` outstanding.

        The trace's timestamps are ignored — a closed loop issues the
        next request when a slot frees, so it self-throttles at
        saturation (and is exactly the load shape that *hides* the
        open-loop knee; both exist so benchmarks can show the contrast).
        """
        def client(api: "ApApi"):
            issued = 0
            outstanding = 0
            while issued < len(records) or outstanding:
                while issued < len(records) and outstanding < window:
                    yield from self._issue(api, records[issued], api.now)
                    issued += 1
                    outstanding += 1
                _src, payload = yield from self.port.recv(api)
                self._complete(api, payload)
                outstanding -= 1

        return client
