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

On top of the verbs: :class:`Counter`, three locks of increasing
sophistication (:class:`TasLock`, :class:`TicketLock` — fetch-and-add
tickets, FIFO fair — and :class:`McsLock` — a queue lock whose handoff
is two point-to-point messages), and a :class:`WorkDeque` for work
stealing.

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
    LOCK_MSG,
    MSG_LOCK_GRANT,
    MSG_LOCK_LINK,
    MSG_SYNC_REP,
    MSG_SYNC_TREE_REP,
    SYNC_CBAR,
    SYNC_DEQUE,
    SYNC_INJECT,
    SYNC_REP,
    SYNC_REQ,
    SYNC_TREE_REP,
)
from repro.mp.basic import BasicPort
from repro.net.combine import (
    MODE_FETCH,
    MODE_TREE,
    OP_ADD,
    OP_CSWAP,
    OP_OR,
    OP_SWAP,
    PHASE_REQ,
    SyncTag,
)
from repro.niu.niu import SP_SERVICE_QUEUE
from repro.sync.firmware import (DEQUE_POP, DEQUE_PUSH, DEQUE_STEAL,
                                 ensure_sync_firmware)
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
        #: arrived-but-unclaimed messages (out-of-order replies, early
        #: LINKs, other groups' collectives): (src, payload).
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
        ``req``, as ``(ok, value)``."""
        def match(_src: int, p: bytes) -> Optional[Tuple[bool, int]]:
            if p[0] == MSG_SYNC_REP:
                rtok, ok, value = SYNC_REP.unpack(p)
                if rtok == req:
                    return ok, value
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

    def _lock_match(self, kind: int, cell: int
                    ) -> Callable[[int, bytes], Any]:
        """``_await`` matcher: this group's MCS ``kind`` message for
        ``cell``, as its sender node."""
        def match(src: int, p: bytes) -> Optional[int]:
            if p[0] == kind:
                _kind, g, c = LOCK_MSG.unpack(p)
                if g == self.gid and c == cell:
                    return src
            return None

        return match

    # -- the two verbs -----------------------------------------------------

    def cell_op(self, api: "ApApi", node: int, cell: int, op: int,
                value: int, aux: int = 0
                ) -> Generator["Event", None, int]:
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
                          cell=cell, aux=aux, token=req, origin=node,
                          reply_queue=SYNC_RX_LOGICAL)
            yield from cl.port.send_to(api, node, SP_SERVICE_QUEUE,
                                       SYNC_INJECT.pack(tail=tag.pack()))
        else:
            yield from cl.port.send_to(
                api, self.home(cell), SP_SERVICE_QUEUE,
                SYNC_REQ.pack(self.gid, cell, op, req, SYNC_RX_LOGICAL,
                              value, aux))
        _ok, old = yield from self._await(api, cl, self._rep_match(req))
        return old

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

    def tas_lock(self, cell: int = 0) -> "TasLock":
        return TasLock(self, cell)

    def ticket_lock(self, cell: int = 0) -> "TicketLock":
        return TicketLock(self, cell)

    def mcs_lock(self, cell: int = 0) -> "McsLock":
        return McsLock(self, cell)

    def deque(self, owner_rank: int = 0) -> "WorkDeque":
        return WorkDeque(self, owner_rank)


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


class TasLock:
    """Test-and-set spinlock: the simplest — and under contention the
    worst — primitive; every retry is a full round trip."""

    __slots__ = ("group", "cell")

    def __init__(self, group: SyncGroup, cell: int) -> None:
        self.group = group
        self.cell = cell

    def acquire(self, api: "ApApi", node: int
                ) -> Generator["Event", None, int]:
        """Spin (with exponential backoff) until the set wins.  Returns
        the number of failed attempts (contention diagnostics)."""
        tries = 0
        backoff = 60
        while True:
            old = yield from self.group.cell_op(api, node, self.cell,
                                                OP_OR, 1)
            if old == 0:
                return tries
            tries += 1
            yield from api.compute(backoff)
            backoff = min(backoff * 2, 2000)

    def release(self, api: "ApApi", node: int
                ) -> Generator["Event", None, None]:
        yield from self.group.cell_op(api, node, self.cell, OP_SWAP, 0)


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


class McsLock:
    """MCS-style queue lock: constant traffic per handoff.

    The tail cell holds the last waiter's node id + 1 (0 = free).
    Acquire swaps itself in; a contended acquirer announces itself to
    its predecessor (``MSG_LOCK_LINK``) and blocks for ``MSG_LOCK_GRANT``.
    Release compare-and-swaps the tail back to 0 — the one place the
    non-combining CSWAP is required: a plain swap would race a
    concurrent enqueuer and strand it.
    """

    __slots__ = ("group", "cell")

    def __init__(self, group: SyncGroup, cell: int) -> None:
        self.group = group
        self.cell = cell

    def acquire(self, api: "ApApi", node: int
                ) -> Generator["Event", None, None]:
        g = self.group
        prev = yield from g.cell_op(api, node, self.cell, OP_SWAP, node + 1)
        if prev == 0:
            return
        cl = g.fabric.client(node)
        yield from cl.port.send_to(
            api, prev - 1, SYNC_RX_LOGICAL,
            LOCK_MSG.pack(MSG_LOCK_LINK, g.gid, self.cell))
        yield from g._await(api, cl, g._lock_match(MSG_LOCK_GRANT, self.cell))

    def release(self, api: "ApApi", node: int
                ) -> Generator["Event", None, None]:
        g = self.group
        old = yield from g.cell_op(api, node, self.cell, OP_CSWAP, 0,
                                   aux=node + 1)
        if old == node + 1:
            return  # no successor; the CSWAP freed the lock
        cl = g.fabric.client(node)
        successor = yield from g._await(
            api, cl, g._lock_match(MSG_LOCK_LINK, self.cell))
        yield from cl.port.send_to(
            api, successor, SYNC_RX_LOGICAL,
            LOCK_MSG.pack(MSG_LOCK_GRANT, g.gid, self.cell))


class WorkDeque:
    """A work-stealing deque owned by one member's sP.

    The owner pushes/pops at the tail (LIFO — locality), thieves steal
    from the head (FIFO — oldest, largest work first).  One deque per
    (group, owner).
    """

    __slots__ = ("group", "owner")

    def __init__(self, group: SyncGroup, owner_rank: int) -> None:
        self.group = group
        self.owner = group.members[owner_rank]

    def _op(self, api: "ApApi", node: int, verb: int, value: int
            ) -> Generator["Event", None, Tuple[bool, int]]:
        g = self.group
        cl = g.fabric.client(node)
        cl.req += 1
        req = cl.req
        yield from cl.port.send_to(
            api, self.owner, SP_SERVICE_QUEUE,
            SYNC_DEQUE.pack(g.gid, verb, req, SYNC_RX_LOGICAL, value))
        ok, got = yield from g._await(api, cl, g._rep_match(req))
        return ok, got

    def push(self, api: "ApApi", node: int, value: int
             ) -> Generator["Event", None, int]:
        """Append one work item; returns the deque depth after the push."""
        _ok, depth = yield from self._op(api, node, DEQUE_PUSH, value)
        return depth

    def pop(self, api: "ApApi", node: int
            ) -> Generator["Event", None, Optional[int]]:
        """Owner-side LIFO pop; None when empty."""
        ok, got = yield from self._op(api, node, DEQUE_POP, 0)
        return got if ok else None

    def steal(self, api: "ApApi", node: int
              ) -> Generator["Event", None, Optional[int]]:
        """Thief-side FIFO steal; None when empty."""
        ok, got = yield from self._op(api, node, DEQUE_STEAL, 0)
        return got if ok else None


__all__ = [
    "SYNC_RX_LOGICAL",
    "SYNC_TX_INDEX",
    "Counter",
    "McsLock",
    "SyncFabric",
    "SyncGroup",
    "TasLock",
    "TicketLock",
    "WorkDeque",
]
