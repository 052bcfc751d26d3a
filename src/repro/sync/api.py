"""Scalable synchronization primitives over combining hardware.

The library half of in-network computing: every primitive here is built
from two tiny verbs a :class:`SyncGroup` provides —

* :meth:`SyncGroup.cell_op` — fetch-and-op on a named 64-bit cell
  (add / min / max / or / swap / compare-and-swap);
* :meth:`SyncGroup.tree_op` — a full-group combining collective
  (:meth:`SyncGroup.barrier` when the value is ignored, allreduce when
  it is not).

Each verb has two transports selected per group:

* ``mode="switch"`` — in-network computing.  ``cell_op`` requests ride
  sync-tagged packets that *combine at the switches* on their way to
  the cell's home switch (Ultracomputer-style fetch-and-add combining);
  ``tree_op`` runs over a planned SHARP-style reduction tree
  (:mod:`repro.sync.plan`), one packet per tree edge per direction.
* ``mode="endpoint"`` — the pure-endpoint fallback: the same wire
  verbs served by a single home sP (:mod:`repro.sync.firmware`).  This
  is both the degraded path for machines without a network and the
  hot-spot baseline ``benchmarks/bench_sync.py`` measures against.

On top of the verbs: :class:`Counter` and :class:`TicketLock`
(fetch-and-add tickets, FIFO fair).

Concurrency model: one sync client per node — the per-node port
(aP tx queue ``SYNC_TX_INDEX``, rx logical ``SYNC_RX_LOGICAL``) is a
polled Basic-message endpoint and is not reentrant, exactly like the
MiniMPI port convention.  All methods are generator fragments run on
the calling aP (``yield from``), so every operation pays real bus,
queue and (where applicable) network cost.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, List,
                    Optional, Tuple)

from repro.common.errors import ConfigError, ProgramError
from repro.common.wire import (
    MSG_SYNC_REP,
    MSG_SYNC_TREE_REP,
    SYNC_CBAR,
    SYNC_INJECT,
    SYNC_REP,
    SYNC_REQ,
    SYNC_TREE_REP,
)
from repro.mp.basic import BasicPort
from repro.net.combine import MODE_FETCH, MODE_TREE, OP_ADD, PHASE_REQ, SyncTag
from repro.niu.niu import SP_SERVICE_QUEUE
from repro.sync.firmware import ensure_sync_firmware
from repro.sync.plan import SwitchTreePlan, plan_group

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager
    from repro.node.ap import ApApi
    from repro.sim.events import Event

#: the sync library's queue convention (MiniMPI owns tx/rx 2).
SYNC_TX_INDEX = 3
SYNC_RX_LOGICAL = 3


class _NodeClient:
    """One node's sync endpoint: the port, its demux inbox, request ids."""

    __slots__ = ("node_id", "port", "inbox", "req")

    def __init__(self, board, node_id: int) -> None:
        self.node_id = node_id
        self.port = BasicPort(board, SYNC_TX_INDEX, SYNC_RX_LOGICAL)
        #: arrived-but-unclaimed messages (out-of-order replies, other
        #: groups' collectives): (src, payload).
        self.inbox: List[Tuple[int, bytes]] = []
        self.req = 0


class SyncFabric:
    """Machine-wide context for sync groups (one per machine).

    Owns group-id allocation, the per-node client ports, and the hook
    into the combine sanitizer when one is armed.  Obtain via
    :meth:`repro.core.machine.StarTVoyager.sync_fabric`.
    """

    __slots__ = ("machine", "engine", "stats", "sanitizer", "groups",
                 "_next_gid", "_clients")

    def __init__(self, machine: "StarTVoyager") -> None:
        self.machine = machine
        self.engine = machine.engine
        self.stats = machine.stats
        sanitizer = None
        layer = machine.sanitizers
        if layer is not None:
            try:
                sanitizer = layer.checker("combine")
            except ConfigError:
                sanitizer = None
        self.sanitizer = sanitizer
        self.groups: Dict[int, "SyncGroup"] = {}
        self._next_gid = 1
        self._clients: Dict[int, _NodeClient] = {}
        ensure_sync_firmware(machine)

    def client(self, node: int) -> _NodeClient:
        """The (lazily created) sync endpoint of one node."""
        cl = self._clients.get(node)
        if cl is None:
            cl = self._clients[node] = _NodeClient(
                self.machine.node(node), node)
        return cl

    def group(self, members, mode: str = "switch") -> "SyncGroup":
        """Create a sync group over ``members`` (node ids).

        ``mode="switch"`` plans a combining tree through the fabric
        (degrading to endpoint service when the machine has no
        network); ``mode="endpoint"`` forces the sP-served path.
        """
        if mode not in ("switch", "endpoint"):
            raise ConfigError(f"unknown sync mode {mode!r}")
        gid = self._next_gid
        self._next_gid += 1
        grp = SyncGroup(self, gid, members, mode)
        self.groups[gid] = grp
        return grp


class SyncGroup:
    """One reduction group: a member set plus its transport."""

    __slots__ = ("fabric", "gid", "members", "mode", "switch", "plan",
                 "_rank", "_seq")

    def __init__(self, fabric: SyncFabric, gid: int, members,
                 mode: str) -> None:
        self.fabric = fabric
        self.gid = gid
        self.members: Tuple[int, ...] = tuple(sorted(set(members)))
        if not self.members:
            raise ConfigError("a sync group needs at least one member")
        machine = fabric.machine
        net = machine.network
        self.switch = mode == "switch" and net is not None
        self.mode = "switch" if self.switch else "endpoint"
        self.plan: Optional[SwitchTreePlan] = None
        if self.switch:
            self.plan = plan_group(net.topology, gid, self.members,
                                   seed=machine.config.seed)
            for key, prog in self.plan.programs.items():
                stage = net.switches[key].ensure_combiner(
                    stats=machine.stats, sanitizer=fabric.sanitizer)
                stage.load(prog)
        self._rank = {m: i for i, m in enumerate(self.members)}
        #: per-member collective sequence counters (must stay aligned:
        #: members call collectives in the same order, as in MPI).
        self._seq: Dict[int, int] = {}

    def rank_of(self, node: int) -> int:
        """The member's dense rank inside the group."""
        try:
            return self._rank[node]
        except KeyError:
            raise ProgramError(
                f"node {node} is not a member of sync group {self.gid}"
            ) from None

    def home(self, cell: int) -> int:
        """Endpoint mode: the member whose sP serves ``cell``."""
        return self.members[cell % len(self.members)]

    # -- transport helpers -------------------------------------------------

    def _await(self, api: "ApApi", cl: _NodeClient,
               match: Callable[[int, bytes], Any]
               ) -> Generator["Event", None, Any]:
        """Claim the first message ``match(src, payload)`` maps to a
        non-None result: the inbox first, then fresh arrivals, stashing
        non-matches in arrival order."""
        for i, (src, p) in enumerate(cl.inbox):
            got = match(src, p)
            if got is not None:
                del cl.inbox[i]
                return got
        while True:
            src, p = yield from cl.port.recv(api)
            got = match(src, p)
            if got is not None:
                return got
            cl.inbox.append((src, p))

    @staticmethod
    def _rep_match(req: int) -> Callable[[int, bytes], Any]:
        """``_await`` matcher: the ``MSG_SYNC_REP`` answering request
        ``req``, as its value."""
        def match(_src: int, p: bytes) -> Optional[int]:
            if p[0] == MSG_SYNC_REP:
                rtok, _ok, value = SYNC_REP.unpack(p)
                if rtok == req:
                    return value
            return None

        return match

    def _tree_match(self, seq: int) -> Callable[[int, bytes], Any]:
        """``_await`` matcher: this group's ``MSG_SYNC_TREE_REP`` for
        collective ``seq``, as the folded value."""
        def match(_src: int, p: bytes) -> Optional[int]:
            if p[0] == MSG_SYNC_TREE_REP:
                g, s, value = SYNC_TREE_REP.unpack(p)
                if g == self.gid and s == seq:
                    return value
            return None

        return match

    # -- the two verbs -----------------------------------------------------

    def cell_op(self, api: "ApApi", node: int, cell: int, op: int,
                value: int) -> Generator["Event", None, int]:
        """Fetch-and-op on one cell; returns the pre-op value.

        Serializable: the returned values are exactly those of *some*
        serial order of the concurrent requests (in switch mode the
        order fixed by combining; at an sP, arrival order).
        """
        self.rank_of(node)
        cl = self.fabric.client(node)
        cl.req += 1
        req = cl.req
        if self.switch:
            tag = SyncTag(PHASE_REQ, MODE_FETCH, self.gid, op, value=value,
                          cell=cell, token=req, origin=node,
                          reply_queue=SYNC_RX_LOGICAL)
            yield from cl.port.send_to(api, node, SP_SERVICE_QUEUE,
                                       SYNC_INJECT.pack(tail=tag.pack()))
        else:
            yield from cl.port.send_to(
                api, self.home(cell), SP_SERVICE_QUEUE,
                SYNC_REQ.pack(self.gid, cell, op, req, SYNC_RX_LOGICAL,
                              value, 0))
        return (yield from self._await(api, cl, self._rep_match(req)))

    def tree_op(self, api: "ApApi", node: int, op: int, value: int = 0
                ) -> Generator["Event", None, int]:
        """Full-group combining collective; returns the folded value.

        Every member must call once per collective, in the same order
        (the MPI collective-call discipline).  Switch mode combines in
        the planned reduction tree; endpoint mode serializes at the
        group's home sP.
        """
        self.rank_of(node)
        cl = self.fabric.client(node)
        seq = self._seq.get(node, 0) + 1
        self._seq[node] = seq
        if self.switch:
            tag = SyncTag(PHASE_REQ, MODE_TREE, self.gid, op, value=value,
                          seq=seq, origin=node,
                          reply_queue=SYNC_RX_LOGICAL)
            yield from cl.port.send_to(api, node, SP_SERVICE_QUEUE,
                                       SYNC_INJECT.pack(tail=tag.pack()))
        else:
            yield from cl.port.send_to(
                api, self.members[0], SP_SERVICE_QUEUE,
                SYNC_CBAR.pack(self.gid, seq, len(self.members),
                               SYNC_RX_LOGICAL, op, value))
        return (yield from self._await(api, cl, self._tree_match(seq)))

    def barrier(self, api: "ApApi", node: int
                ) -> Generator["Event", None, None]:
        """Wait until every member has entered: a :meth:`tree_op` whose
        value is ignored (returns at once in a one-member group)."""
        if len(self.members) == 1:
            return
        yield from self.tree_op(api, node, OP_ADD, 0)

    # -- primitive factories ----------------------------------------------

    def counter(self, cell: int = 0) -> "Counter":
        return Counter(self, cell)

    def ticket_lock(self, cell: int = 0) -> "TicketLock":
        return TicketLock(self, cell)


class Counter:
    """A shared fetch-and-add counter on one cell."""

    __slots__ = ("group", "cell")

    def __init__(self, group: SyncGroup, cell: int) -> None:
        self.group = group
        self.cell = cell

    def add(self, api: "ApApi", node: int, value: int = 1
            ) -> Generator["Event", None, int]:
        """Atomic add; returns the pre-add value."""
        old = yield from self.group.cell_op(api, node, self.cell, OP_ADD,
                                            value)
        return old

    def read(self, api: "ApApi", node: int
             ) -> Generator["Event", None, int]:
        """Current value (a fetch-and-add of zero, so reads combine too)."""
        old = yield from self.group.cell_op(api, node, self.cell, OP_ADD, 0)
        return old


class TicketLock:
    """Fetch-and-add ticket lock: FIFO fair by construction.

    Uses two cells: ``cell`` holds the next ticket, ``cell + 1`` the
    now-serving number.  In switch mode both the ticket grab and the
    now-serving poll (a fetch-and-add of zero) *combine*, so a storm of
    spinners costs the home one packet per combining window instead of
    one per spinner — the Ultracomputer polling argument.
    """

    __slots__ = ("group", "cell")

    def __init__(self, group: SyncGroup, cell: int) -> None:
        self.group = group
        self.cell = cell

    def acquire(self, api: "ApApi", node: int
                ) -> Generator["Event", None, int]:
        """Take a ticket, spin until served; returns the ticket."""
        ticket = yield from self.group.cell_op(api, node, self.cell,
                                               OP_ADD, 1)
        while True:
            serving = yield from self.group.cell_op(api, node, self.cell + 1,
                                                    OP_ADD, 0)
            if serving == ticket:
                return ticket
            yield from api.compute(120)

    def release(self, api: "ApApi", node: int
                ) -> Generator["Event", None, None]:
        yield from self.group.cell_op(api, node, self.cell + 1, OP_ADD, 1)


__all__ = [
    "SYNC_RX_LOGICAL",
    "SYNC_TX_INDEX",
    "Counter",
    "SyncFabric",
    "SyncGroup",
    "TicketLock",
]
