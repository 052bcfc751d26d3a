"""A miniature MPI over Basic messages (the paper's layer-0 example).

"Library functions generally run within the communicating process ...
For example, we will provide an MPI library that presents the usual MPI
interface to the user code but uses the underlying NIU support for the
actual communication."

:class:`MiniMPI` is that library: ranks map to nodes, large sends
fragment into Basic messages, receives reassemble and match on
``(source, tag)``, and the usual collectives (barrier, bcast,
allreduce) are built from point-to-point — all of it ordinary
user code over :class:`~repro.mp.basic.BasicPort`.  Every collective is
rooted at rank 0, and ``allreduce`` sums 64-bit integers: the one
reduction every combining path in the machine applies.

Collectives are selectable per machine through ``algo=``:

* ``"flat"`` — the original rank-0-rooted O(N) loops (the baseline);
* ``"tree"`` — host-side spanning-tree / recursive-doubling algorithms
  from :mod:`repro.collectives.api`: O(log N) critical path, still every
  message issued by the aPs;
* ``"nic"`` — NIC-offloaded: the sP ``CollectiveUnit`` firmware
  (:mod:`repro.collectives.firmware`) combines contributions in the
  network interface and the aP issues a single enqueue plus a single
  dequeue per collective, keyed at the sP by this communicator's
  receive queue.
* ``"switch"`` — in-network computing: barrier and allreduce
  ride a switch-resident combining tree (:mod:`repro.sync`), one
  packet per tree edge with the folding done *inside the fabric*.
  Only those two collectives offload this far; the rest fall back to
  the machine's base algorithm.

The ``"tree"`` and ``"nic"`` families walk the machine's one binomial
tree (:func:`repro.collectives.plan.binomial_tree`), which machine
assembly builds and the sP firmware image installs.

Fragment format (within one Basic payload, 88-byte cap):

====== ========================================
bytes  field
====== ========================================
0-1    tag
2-5    total message length
6-9    fragment offset
10+    fragment data (up to 78 bytes)
====== ========================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.collectives import api as coll_api
from repro.collectives.firmware import (KIND_ALLREDUCE, KIND_BARRIER,
                                        KIND_BCAST)
from repro.collectives.plan import RdSchedule, TreePlan, recursive_doubling
from repro.common.errors import ProgramError
from repro.common.wire import COLL, COLL_MAX_DATA, MPI_FRAG, MSG_COLL_REQ, VALUE
from repro.mp.basic import BasicPort
from repro.niu.niu import SP_SERVICE_QUEUE

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager
    from repro.node.ap import ApApi
    from repro.sim.events import Event

FRAG_DATA = 78
#: reliable sends lose 4 bytes of each Basic payload to the go-back-N
#: header (repro.common.wire.REL_DATA), so fragments shrink.
FRAG_DATA_RELIABLE = 74
#: collective traffic owns tags 0x8000..0xFFFF (user tags are 15-bit),
#: sequenced per collective call so that back-to-back collectives never
#: steal each other's messages.  The 32768-tag window means aliasing
#: would need that many collectives simultaneously outstanding between
#: one rank pair; per-(src, tag) in-order delivery plus the FIFO mailbox
#: keep even aliased single-fragment collectives correct.  The firmware
#: path additionally keys its combining state by the reply queue and a
#: 32-bit sequence number, so the NIC never sees a tag wrap at all.
_COLL_TAG_BASE = 0x8000
_COLL_TAG_SPAN = 0x8000

#: the collective algorithm families MiniMPI can route through.
ALGOS = ("flat", "tree", "nic", "switch")


class MiniMPI:
    """Factory for per-rank communicators over one (tx, rx) queue pair.

    ``algo`` selects the collective family (see the module docstring).

    ``reliable=True`` routes every point-to-point fragment through the
    sP's go-back-N ack/retransmit firmware
    (:mod:`repro.firmware.reliable`, in every sP's default image),
    surviving lossy links at the cost of a 4-byte header per fragment
    and the firmware round trip.
    Collectives built from point-to-point (``"flat"``/``"tree"``)
    inherit reliability; the ``"nic"`` combining path does not.
    """

    def __init__(self, machine: "StarTVoyager", tx_index: int = 2,
                 rx_logical: int = 2, algo: str = "flat",
                 reliable: bool = False) -> None:
        if algo not in ALGOS:
            raise ProgramError(f"unknown collective algo {algo!r}; "
                               f"choose from {ALGOS}")
        self.machine = machine
        self.size = machine.config.n_nodes
        self.tx_index = tx_index
        self.rx_logical = rx_logical
        self.algo = algo
        self.reliable = reliable
        self.frag_data = FRAG_DATA_RELIABLE if reliable else FRAG_DATA
        self._ranks: Dict[int, "MpiRank"] = {}
        #: the machine's binomial tree rooted at rank 0, installed with
        #: the firmware image: ``tree`` walks it from the aPs, ``nic``
        #: from the sPs.
        self.plan: TreePlan = machine.node(0).sp.state["collectives"].plan
        self._rd: Optional[RdSchedule] = None
        self._sync_group = None
        if algo == "switch":
            self.sync_group()

    def sync_group(self):
        """The whole-communicator sync group backing ``algo="switch"``
        (lazy: created on first use, planning the combining tree through
        the fabric)."""
        if self._sync_group is None:
            fabric = self.machine.sync_fabric()
            self._sync_group = fabric.group(range(self.size), mode="switch")
        return self._sync_group

    def rank(self, node: int) -> "MpiRank":
        """The communicator handle of one rank (cached per node)."""
        if node not in self._ranks:
            self._ranks[node] = MpiRank(self, node)
        return self._ranks[node]

    def rd_schedule(self) -> RdSchedule:
        """The recursive-doubling allreduce schedule (cached)."""
        if self._rd is None:
            self._rd = recursive_doubling(self.size)
        return self._rd


class MpiRank:
    """One rank's communicator: point-to-point plus collectives."""

    def __init__(self, mpi: MiniMPI, node: int) -> None:
        self.mpi = mpi
        self.rank = node
        self.size = mpi.size
        self.port = BasicPort(mpi.machine.node(node), mpi.tx_index,
                              mpi.rx_logical)
        self.stats = self.port.stats
        #: completed messages waiting for a matching recv, oldest first:
        #: (src, tag) -> [(arrival number, data), ...].  A key leaves
        #: the dict with its last message.
        self._mailbox: Dict[Tuple[int, int], List[Tuple[int, bytes]]] = {}
        #: messages completed so far: orders wildcard matches.
        self._arrivals = 0
        #: partially reassembled messages: (src, tag) -> (total, bytearray, got)
        self._partial: Dict[Tuple[int, int], Tuple[int, bytearray, int]] = {}
        #: collective-call sequence number (identical across ranks because
        #: every rank executes the same collective sequence).
        self._coll_seq = 0

    # -- point to point ------------------------------------------------------

    def send(self, api: "ApApi", dst: int, data: bytes, tag: int = 0
             ) -> Generator["Event", None, None]:
        """Blocking-buffered send of arbitrary length.

        User tags are 15-bit (0..0x7FFF); the upper half of the tag space
        is reserved for collective sequencing.
        """
        if not (0 <= tag < _COLL_TAG_BASE):
            raise ProgramError(
                f"user tags are 0..{_COLL_TAG_BASE - 1:#x}; "
                f"{_COLL_TAG_BASE:#x}..0xffff is reserved for collectives"
            )
        t0 = api.now
        yield from self._send(api, dst, data, tag)
        self.stats.accumulator("mpi.send_ns").add(api.now - t0)

    def _send(self, api: "ApApi", dst: int, data: bytes, tag: int
              ) -> Generator["Event", None, None]:
        """The raw send path (full 16-bit tag space; collectives use it)."""
        if not (0 <= dst < self.size):
            raise ProgramError(f"no rank {dst}")
        if not (0 <= tag <= 0xFFFF):
            raise ProgramError(f"tag {tag} outside 16 bits")
        total = len(data)
        frag_data = self.mpi.frag_data
        offset = 0
        while True:
            frag = data[offset : offset + frag_data]
            payload = MPI_FRAG.pack(tag, total, offset, tail=frag)
            yield from self.port.send_to(api, dst, self.mpi.rx_logical,
                                         payload, reliable=self.mpi.reliable)
            offset += len(frag)
            if offset >= total:
                break

    def recv(self, api: "ApApi", src: Optional[int] = None,
             tag: Optional[int] = None
             ) -> Generator["Event", None, Tuple[int, int, bytes]]:
        """Blocking receive; returns ``(src, tag, data)``.

        ``None`` wildcards match any source / any tag, in arrival order:
        the earliest-completed matching message is returned first.
        """
        t0 = api.now
        while True:
            hit = self._match(src, tag)
            if hit is not None:
                self.stats.accumulator("mpi.recv_ns").add(api.now - t0)
                return hit
            frag_src, payload = yield from self.port.recv(api)
            self._absorb(frag_src, payload)

    def _match(self, src: Optional[int], tag: Optional[int]
               ) -> Optional[Tuple[int, int, bytes]]:
        if src is not None and tag is not None:
            key: Optional[Tuple[int, int]] = (src, tag)
            if key not in self._mailbox:
                return None
        else:
            key, first = None, 0
            for k, queue in self._mailbox.items():
                if ((src is None or k[0] == src)
                        and (tag is None or k[1] == tag)
                        and (key is None or queue[0][0] < first)):
                    key, first = k, queue[0][0]
            if key is None:
                return None
        queue = self._mailbox[key]
        _n, data = queue.pop(0)
        if not queue:
            del self._mailbox[key]
        return key[0], key[1], data

    def _complete(self, key: Tuple[int, int], data: bytes) -> None:
        self._arrivals += 1
        self._mailbox.setdefault(key, []).append((self._arrivals, data))

    def _absorb(self, src: int, payload: bytes) -> None:
        tag, total, offset, frag = MPI_FRAG.unpack(payload)
        key = (src, tag)
        if offset == 0 and len(frag) >= total:
            self._complete(key, frag[:total])
            return
        if key not in self._partial:
            self._partial[key] = (total, bytearray(total), 0)
        exp_total, buf, got = self._partial[key]
        if exp_total != total:
            raise ProgramError(
                f"interleaved same-(src,tag) messages of different sizes "
                f"({exp_total} vs {total}); use distinct tags"
            )
        buf[offset : offset + len(frag)] = frag
        got += len(frag)
        if got >= total:
            del self._partial[key]
            self._complete(key, bytes(buf))
        else:
            self._partial[key] = (total, buf, got)

    # -- collectives -------------------------------------------------------------

    def _next_coll(self) -> Tuple[int, int]:
        """Advance the collective sequence; returns ``(wire_seq, tag)``."""
        seq = self._coll_seq
        self._coll_seq += 1
        return seq & 0xFFFFFFFF, _COLL_TAG_BASE | (seq % _COLL_TAG_SPAN)

    def _nic_request(self, api: "ApApi", kind: int, seq: int, tag: int,
                     data: bytes) -> Generator["Event", None, None]:
        """The single enqueue: one Basic message to the local sP (a
        lossless loopback hand-off, so never the reliable path).  The
        firmware's installed plan supplies the root, and the reply queue
        names this communicator."""
        payload = COLL.pack(MSG_COLL_REQ, kind, seq, self.mpi.rx_logical,
                            tag, tail=data)
        yield from self.port.send_to(api, self.rank, SP_SERVICE_QUEUE,
                                     payload)

    def barrier(self, api: "ApApi") -> Generator["Event", None, None]:
        """All ranks synchronize."""
        t0 = api.now
        yield from self._do_barrier(api)
        self.stats.accumulator("mpi.barrier_ns").add(api.now - t0)

    def _do_barrier(self, api: "ApApi") -> Generator["Event", None, None]:
        seq, tag = self._next_coll()
        if self.size == 1:
            return
        algo = self.mpi.algo
        if algo == "switch":
            yield from self.mpi.sync_group().barrier(api, self.rank)
        elif algo == "tree":
            yield from coll_api.tree_barrier(self, api, self.mpi.plan, tag)
        elif algo == "nic":
            yield from self._nic_request(api, KIND_BARRIER, seq, tag, b"")
            yield from self.recv(api, tag=tag)
        elif self.rank == 0:
            for _ in range(self.size - 1):
                yield from self.recv(api, tag=tag)
            for dst in range(1, self.size):
                yield from self._send(api, dst, b"r", tag)
        else:
            yield from self._send(api, 0, b"a", tag)
            yield from self.recv(api, src=0, tag=tag)

    def bcast(self, api: "ApApi", data: Optional[bytes]
              ) -> Generator["Event", None, bytes]:
        """Broadcast ``data`` from rank 0; every rank returns it."""
        t0 = api.now
        out = yield from self._do_bcast(api, data)
        self.stats.accumulator("mpi.bcast_ns").add(api.now - t0)
        return out

    def _do_bcast(self, api: "ApApi", data: Optional[bytes]
                  ) -> Generator["Event", None, bytes]:
        seq, tag = self._next_coll()
        if self.size == 1:
            return data or b""
        algo = self.mpi.algo
        if algo == "tree":
            return (yield from coll_api.tree_bcast(
                self, api, data, self.mpi.plan, tag))
        if algo == "nic":
            if self.rank == 0:
                assert data is not None, "root must supply the data"
                if len(data) > COLL_MAX_DATA:
                    raise ProgramError(
                        f"NIC-offloaded bcast carries at most "
                        f"{COLL_MAX_DATA} bytes (got {len(data)}); use "
                        f"algo='tree' for larger payloads"
                    )
                yield from self._nic_request(api, KIND_BCAST, seq, tag, data)
            _src, _tag, got = yield from self.recv(api, tag=tag)
            return got
        if self.rank == 0:
            assert data is not None, "root must supply the data"
            for dst in range(1, self.size):
                yield from self._send(api, dst, data, tag)
            return data
        _src, _tag, got = yield from self.recv(api, src=0, tag=tag)
        return got

    def allreduce(self, api: "ApApi", value: int
                  ) -> Generator["Event", None, int]:
        """Sum 64-bit ``value`` over every rank; every rank returns it."""
        # one frame, unlike the other collectives' _do_* split: a rank
        # spinning in the NIC allreduce's receive resumes this chain on
        # every poll.  Each branch leaves its result in ``out``.
        t0 = api.now
        algo = self.mpi.algo
        if algo == "switch":
            self._next_coll()  # keep tag sequencing aligned across algos
            out = value
            if self.size > 1:
                out = yield from self.mpi.sync_group().tree_op(
                    api, self.rank, value)
        elif algo == "tree":
            _seq, tag = self._next_coll()
            out = value
            if self.size > 1:
                out = yield from coll_api.rd_allreduce(
                    self, api, value, self.mpi.rd_schedule(), tag)
        elif algo == "nic":
            seq, tag = self._next_coll()
            out = value
            if self.size > 1:
                yield from self._nic_request(api, KIND_ALLREDUCE, seq, tag,
                                             VALUE.pack(value))
                _src, _tag, got = yield from self.recv(api, tag=tag)
                out = VALUE.unpack(got)[0]
        else:
            # flat: sum at rank 0 in arrival order, then broadcast it
            _seq, tag = self._next_coll()
            if self.rank == 0:
                acc = value
                for _ in range(self.size - 1):
                    _src, _tag, got = yield from self.recv(api, tag=tag)
                    acc += VALUE.unpack(got)[0]
                result = yield from self.bcast(api, VALUE.pack(acc))
            else:
                yield from self._send(api, 0, VALUE.pack(value), tag)
                result = yield from self.bcast(api, None)
            out = VALUE.unpack(result)[0]
        self.stats.accumulator("mpi.allreduce_ns").add(api.now - t0)
        return out
