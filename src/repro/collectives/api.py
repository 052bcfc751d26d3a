"""Host-side tree collectives over mini-MPI point-to-point.

The ``algo="tree"`` middle ground: same O(log N) communication structure
as the NIC-offloaded path, but executed by the aPs with ordinary
point-to-point sends/receives — no firmware involvement beyond normal
message delivery.  Useful both as a benchmark rung between ``"flat"``
and ``"nic"`` and as the fallback for what the combining firmware does not
accelerate (arbitrary callable reduction operators).

Every function is a generator fragment run on the aP; ``comm`` is a
:class:`repro.lib.mpi.MpiRank` (or anything offering ``rank``/``size``/
``_send``/``recv`` — the raw send path, because collective tags live in
the reserved upper half of the tag space).  Reductions fold
own-value-first, then children in
the plan's deterministic order — on a binomial tree this is exactly the
ascending-(virtual-)rank fold, so non-commutative operators behave like
MPI's canonical reduction order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.collectives.plan import RdSchedule, TreePlan
from repro.common.wire import VALUE

if TYPE_CHECKING:  # pragma: no cover
    from repro.node.ap import ApApi
    from repro.sim.events import Event


def _record(comm, api: "ApApi", name: str, t0: float) -> None:
    """Latency sample for one collective call (no-op for bare comms)."""
    stats = getattr(comm, "stats", None)
    if stats is not None:
        stats.accumulator(name).add(api.now - t0)


def tree_barrier(comm, api: "ApApi", plan: TreePlan, tag: int
                 ) -> Generator["Event", None, None]:
    """Gather-up then release-down along the tree: O(depth) critical path."""
    t0 = api.now
    me = comm.rank
    for child in plan.children[me]:
        yield from comm.recv(api, src=child, tag=tag)
    if me != plan.root:
        yield from comm._send(api, plan.parent[me], b"u", tag)
        yield from comm.recv(api, src=plan.parent[me], tag=tag)
    for child in plan.children[me]:
        yield from comm._send(api, child, b"d", tag)
    _record(comm, api, "coll.tree_barrier_ns", t0)


def tree_bcast(comm, api: "ApApi", data: Optional[bytes], plan: TreePlan,
               tag: int) -> Generator["Event", None, bytes]:
    """Pipeline ``data`` down the tree from ``plan.root``."""
    t0 = api.now
    me = comm.rank
    if me == plan.root:
        assert data is not None, "root must supply the data"
    else:
        _src, _tag, data = yield from comm.recv(api, src=plan.parent[me],
                                                tag=tag)
    for child in plan.children[me]:
        yield from comm._send(api, child, data, tag)
    _record(comm, api, "coll.tree_bcast_ns", t0)
    return data


def tree_reduce(comm, api: "ApApi", value: int,
                op: Callable[[int, int], int], plan: TreePlan, tag: int
                ) -> Generator["Event", None, Optional[int]]:
    """Combine up the tree; the result materializes only at the root.

    Children are awaited in the plan's fold order (not arrival order),
    so the fold is deterministic and — on a binomial tree — equals the
    ascending-rank fold even for non-commutative ``op``.
    """
    t0 = api.now
    me = comm.rank
    acc = value
    for child in plan.children[me]:
        _src, _tag, data = yield from comm.recv(api, src=child, tag=tag)
        acc = op(acc, VALUE.unpack(data)[0])
    if me == plan.root:
        _record(comm, api, "coll.tree_reduce_ns", t0)
        return acc
    yield from comm._send(api, plan.parent[me], VALUE.pack(acc), tag)
    _record(comm, api, "coll.tree_reduce_ns", t0)
    return None


def rd_allreduce(comm, api: "ApApi", value: int,
                 op: Callable[[int, int], int], sched: RdSchedule, tag: int
                 ) -> Generator["Event", None, int]:
    """Recursive-doubling allreduce: O(log N) rounds, every rank busy.

    Non-power-of-two sizes fold the extra ranks in before the exchange
    rounds and hand them the result afterwards.  The lower-rank operand
    always goes on the left, so associative non-commutative operators
    still fold in a deterministic (if not strictly ascending) order.
    """
    t0 = api.now
    me = comm.rank
    if sched.is_extra(me):
        partner = me - sched.pow2
        yield from comm._send(api, partner, VALUE.pack(value), tag)
        _src, _tag, data = yield from comm.recv(api, src=partner, tag=tag)
        _record(comm, api, "coll.rd_allreduce_ns", t0)
        return VALUE.unpack(data)[0]
    acc = value
    extra = sched.extra_partner(me)
    if extra is not None:
        _src, _tag, data = yield from comm.recv(api, src=extra, tag=tag)
        acc = op(acc, VALUE.unpack(data)[0])
    for peer in sched.partners(me):
        yield from comm._send(api, peer, VALUE.pack(acc), tag)
        _src, _tag, data = yield from comm.recv(api, src=peer, tag=tag)
        theirs = VALUE.unpack(data)[0]
        acc = op(acc, theirs) if peer > me else op(theirs, acc)
    if extra is not None:
        yield from comm._send(api, extra, VALUE.pack(acc), tag)
    _record(comm, api, "coll.rd_allreduce_ns", t0)
    return acc
