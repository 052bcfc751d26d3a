"""Host-side tree collectives over mini-MPI point-to-point.

The ``algo="tree"`` middle ground: same O(log N) communication structure
as the NIC-offloaded path, but executed by the aPs with ordinary
point-to-point sends/receives — no firmware involvement beyond normal
message delivery.  A benchmark rung between ``"flat"`` and ``"nic"``.

Every function is a generator fragment run on the aP; ``comm`` is a
:class:`repro.lib.mpi.MpiRank`, and the functions use its raw send
path, because collective tags live in the reserved upper half of the
tag space.  The barrier and broadcast walk the machine's binomial tree
rooted at rank 0; the allreduce sums by recursive doubling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.collectives.plan import RdSchedule, TreePlan
from repro.common.wire import VALUE

if TYPE_CHECKING:  # pragma: no cover
    from repro.node.ap import ApApi
    from repro.sim.events import Event


def _record(comm, api: "ApApi", name: str, t0: float) -> None:
    """Latency sample for one collective call."""
    comm.stats.accumulator(name).add(api.now - t0)


def tree_barrier(comm, api: "ApApi", plan: TreePlan, tag: int
                 ) -> Generator["Event", None, None]:
    """Gather-up then release-down along the tree: O(depth) critical path."""
    t0 = api.now
    me = comm.rank
    for child in plan.children[me]:
        yield from comm.recv(api, src=child, tag=tag)
    parent = plan.parent[me]
    if parent is not None:
        yield from comm._send(api, parent, b"u", tag)
        yield from comm.recv(api, src=parent, tag=tag)
    for child in plan.children[me]:
        yield from comm._send(api, child, b"d", tag)
    _record(comm, api, "coll.tree_barrier_ns", t0)


def tree_bcast(comm, api: "ApApi", data: Optional[bytes], plan: TreePlan,
               tag: int) -> Generator["Event", None, bytes]:
    """Pipeline ``data`` down the tree from rank 0."""
    t0 = api.now
    me = comm.rank
    parent = plan.parent[me]
    if parent is None:
        assert data is not None, "root must supply the data"
    else:
        _src, _tag, data = yield from comm.recv(api, src=parent, tag=tag)
    for child in plan.children[me]:
        yield from comm._send(api, child, data, tag)
    _record(comm, api, "coll.tree_bcast_ns", t0)
    return data


def rd_allreduce(comm, api: "ApApi", value: int, sched: RdSchedule,
                 tag: int) -> Generator["Event", None, int]:
    """Recursive-doubling sum: O(log N) rounds, every rank busy.

    Non-power-of-two sizes fold the extra ranks in before the exchange
    rounds and hand them the result afterwards.
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
        acc += VALUE.unpack(data)[0]
    for peer in sched.partners(me):
        yield from comm._send(api, peer, VALUE.pack(acc), tag)
        _src, _tag, data = yield from comm.recv(api, src=peer, tag=tag)
        acc += VALUE.unpack(data)[0]
    if extra is not None:
        yield from comm._send(api, extra, VALUE.pack(acc), tag)
    _record(comm, api, "coll.rd_allreduce_ns", t0)
    return acc
