"""Pure collective plans: spanning trees, schedules, wire format."""

import pytest

from repro.collectives.firmware import KIND_ALLREDUCE, KIND_BCAST
from repro.collectives.plan import binomial_tree, recursive_doubling
from repro.common.errors import ProgramError
from repro.common.wire import COLL, COLL_MAX_DATA, MSG_COLL_REQ, VALUE


# -- spanning trees -------------------------------------------------------------


@pytest.mark.parametrize("builder", [binomial_tree])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8, 13, 16, 17, 32, 33])
def test_trees_are_spanning(builder, n):
    plan = builder(n)
    plan.validate()  # spanning-tree invariants
    assert plan.parent[0] is None
    assert sum(len(c) for c in plan.children) == n - 1


def test_binomial_depth_logarithmic():
    def depth(plan):
        """Longest parent chain, in edges."""
        best = 0
        for r in range(plan.n):
            hops = 0
            while plan.parent[r] is not None:
                r = plan.parent[r]
                hops += 1
            best = max(best, hops)
        return best

    assert [depth(binomial_tree(n)) for n in (1, 2, 8, 16, 17, 32)] \
        == [0, 1, 3, 4, 4, 5]
    # depth is the max popcount of a rank, e.g. 15 = 0b1111


def test_binomial_subtree_contiguous():
    """The subtree of rank v spans [v, v + lowbit(v)), and a preorder
    walk of the whole tree visits the ranks in ascending order."""
    plan = binomial_tree(16)

    def subtree(r):
        out = [r]
        for c in plan.children[r]:
            out.extend(subtree(c))
        return out

    for v in range(1, 16):
        low = v & -v
        assert sorted(subtree(v)) == list(range(v, v + low))
    assert subtree(0) == list(range(16))


def test_tree_argument_errors():
    with pytest.raises(ProgramError):
        binomial_tree(0)


# -- recursive doubling ----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8, 13, 16, 17, 32])
def test_rd_schedule_covers_everyone(n):
    sched = recursive_doubling(n)
    assert sched.pow2 <= n < 2 * sched.pow2
    extras = [r for r in range(n) if sched.is_extra(r)]
    assert extras == list(range(sched.pow2, n))
    for r in extras:
        # every extra is served by exactly its r - pow2 partner
        assert sched.extra_partner(r - sched.pow2) == r
    for r in range(sched.pow2):
        partners = sched.partners(r)
        assert len(partners) == len(sched.rounds)
        assert all(0 <= p < sched.pow2 and p != r for p in partners)
        # the exchange rounds form a hypercube: r reaches everyone
        reached = {r}
        for d in sched.rounds:
            reached |= {x ^ d for x in reached}
        assert reached == set(range(sched.pow2))


def test_rd_schedule_rejects_empty():
    with pytest.raises(ProgramError):
        recursive_doubling(0)


# -- wire format ----------------------------------------------------------------


def test_coll_wire_roundtrip():
    # the root is the installed plan's, not a field
    msg = COLL.unpack(COLL.pack(
        MSG_COLL_REQ, KIND_ALLREDUCE, 0xDEADBEEF, 2, 0x8123,
        tail=VALUE.pack(-42)))
    typ, kind, seq, reply_queue, tag, data = msg
    assert (typ, kind) == (MSG_COLL_REQ, KIND_ALLREDUCE)
    assert (seq, reply_queue) == (0xDEADBEEF, 2)
    assert tag == 0x8123
    assert VALUE.unpack(data) == (-42,)


def test_coll_wire_data_cap():
    big = bytes(COLL_MAX_DATA + 1)
    with pytest.raises(ProgramError):
        COLL.pack(MSG_COLL_REQ, KIND_BCAST, 1, 2, 0x8000, tail=big)


def test_value_packing_signed_64():
    for v in (0, 1, -1, 2**63 - 1, -(2**63)):
        assert VALUE.unpack(VALUE.pack(v)) == (v,)
