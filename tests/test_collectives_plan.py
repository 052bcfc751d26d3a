"""Pure collective plans: spanning trees, schedules, ops, wire format."""

import pytest

from repro.collectives.firmware import KIND_ALLREDUCE, KIND_BCAST
from repro.collectives.plan import binomial_tree, recursive_doubling
from repro.common.errors import NetworkError, ProgramError
from repro.common.wire import COLL, COLL_MAX_DATA, MSG_COLL_REQ, VALUE
from repro.net.combine import (OP_ADD, OP_MAX, OP_MIN, OP_OR, OP_SWAP, OPS,
                               apply_op, op_code)


# -- operators ---------------------------------------------------------------


def test_op_codes_bijective():
    """One table for every combining path: distinct codes, the switch's
    existing codes unchanged (so SyncTag bytes keep their values), and
    ``sum`` still code 0 on the COLL wire."""
    assert len(set(OPS.values())) == len(OPS)
    assert (OPS["sum"], OPS["min"], OPS["max"], OPS["bor"]) \
        == (OP_ADD, OP_MIN, OP_MAX, OP_OR) == (0, 1, 2, 3)
    assert OP_SWAP not in OPS.values()
    for name, code in OPS.items():
        assert op_code(name) == code
    want = {"sum": 10, "prod": 21, "min": 3, "max": 7, "band": 3,
            "bor": 7, "bxor": 4}
    assert {name: apply_op(code, 7, 3) for name, code in OPS.items()} == want


def test_unknown_ops_rejected():
    with pytest.raises(ProgramError):
        op_code("avg")
    with pytest.raises(NetworkError):
        apply_op(99, 1, 2)


# -- spanning trees -------------------------------------------------------------


@pytest.mark.parametrize("builder", [binomial_tree])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 8, 13, 16, 17, 32, 33])
def test_trees_are_spanning(builder, n):
    for root in {0, n // 2, n - 1}:
        plan = builder(n, root)
        plan.validate()  # spanning-tree invariants
        assert plan.parent[root] is None
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
    # depth is the max popcount of a virtual rank, e.g. 15 = 0b1111


def test_binomial_subtree_contiguous():
    """The property the non-commutative reductions rely on: the subtree
    of virtual rank v spans [v, v + lowbit(v)), so own-first +
    ascending-children folds equal the ascending-rank fold."""
    plan = binomial_tree(16)

    def subtree(r):
        out = [r]
        for c in plan.children[r]:
            out.extend(subtree(c))
        return out

    for v in range(1, 16):
        low = v & -v
        assert sorted(subtree(v)) == list(range(v, v + low))
        # fold order is exactly ascending
        assert subtree(0) == list(range(16)) if v == 1 else True
    assert subtree(0) == list(range(16))


def test_rotation_maps_root():
    plan = binomial_tree(6, root=4)
    assert plan.root == 4
    assert plan.parent[4] is None
    # virtual rank v corresponds to real (v + 4) % 6
    ref = binomial_tree(6, root=0)
    for v in range(1, 6):
        pv = ref.parent[v]
        assert plan.parent[(v + 4) % 6] == (pv + 4) % 6


def test_tree_argument_errors():
    with pytest.raises(ProgramError):
        binomial_tree(0)
    with pytest.raises(ProgramError):
        binomial_tree(4, root=4)


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
        MSG_COLL_REQ, KIND_ALLREDUCE, 3, 7, 0xDEADBEEF, 2, 0x8123,
        tail=VALUE.pack(-42)))
    typ, kind, op, comm, seq, reply_queue, tag, data = msg
    assert (typ, kind, op, comm) == (MSG_COLL_REQ, KIND_ALLREDUCE, 3, 7)
    assert (seq, reply_queue) == (0xDEADBEEF, 2)
    assert tag == 0x8123
    assert VALUE.unpack(data) == (-42,)


def test_coll_wire_data_cap():
    big = bytes(COLL_MAX_DATA + 1)
    with pytest.raises(ProgramError):
        COLL.pack(MSG_COLL_REQ, KIND_BCAST, 0, 0, 1, 2, 0x8000, tail=big)


def test_value_packing_signed_64():
    for v in (0, 1, -1, 2**63 - 1, -(2**63)):
        assert VALUE.unpack(VALUE.pack(v)) == (v,)
