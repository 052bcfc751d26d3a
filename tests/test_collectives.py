"""The collectives subsystem end to end: flat vs tree vs NIC-offloaded.

Every algorithm family must produce identical results — including on
non-power-of-two machines — and the NIC path must actually run in the
sP firmware (combining counters move, the aP does one enqueue + one
dequeue).
"""

import pytest

import repro
from repro.common.errors import ProgramError, SimulationError
from repro.lib.mpi import MiniMPI


def _machine(n):
    return repro.StarTVoyager(repro.default_config(n_nodes=n))


def _run_suite(machine, mpi):
    """One of everything on every rank; returns the per-rank results."""
    n = machine.config.n_nodes

    def worker(api, rank):
        comm = mpi.rank(rank)
        yield from comm.barrier(api)
        data = yield from comm.bcast(
            api, b"payload-42" if rank == 0 else None, root=0)
        total = yield from comm.reduce(api, rank + 1, root=0, op="sum")
        yield from comm.barrier(api)
        big = yield from comm.allreduce(api, rank + 1, op="max")
        return data, total, big

    procs = [machine.spawn(i, worker, i) for i in range(n)]
    return machine.run_all(procs, limit=1e10)


@pytest.mark.parametrize("algo", ["flat", "tree", "nic"])
@pytest.mark.parametrize("n", [4, 6])
def test_algos_agree(algo, n):
    """All algorithm families give the same answers, also at the
    non-power-of-two size 6 (the acceptance-criterion case)."""
    machine = _machine(n)
    results = _run_suite(machine, MiniMPI(machine, algo=algo))
    for rank, (data, total, big) in enumerate(results):
        assert data == b"payload-42"
        assert total == (n * (n + 1) // 2 if rank == 0 else None)
        assert big == n


def test_nic_firmware_combines():
    """The offloaded path runs in the sP: combining state completes at
    the root and every node delivers exactly one result per collective,
    while the aP issues a single send and a single recv."""
    machine = _machine(4)
    mpi = MiniMPI(machine, algo="nic")

    def worker(api, rank):
        comm = mpi.rank(rank)
        got = yield from comm.allreduce(api, rank, op="sum")
        return got, comm.port.sent, comm.port.received

    procs = [machine.spawn(i, worker, i) for i in range(4)]
    results = machine.run_all(procs, limit=1e10)
    for got, sent, received in results:
        assert got == 0 + 1 + 2 + 3
        assert sent == 1  # one enqueue ...
        assert received == 1  # ... one dequeue per collective
    root = mpi.nic_plan.root
    assert machine.stats.counter(f"sp{root}.coll_completed").value == 1
    for i in range(4):
        assert machine.stats.counter(f"sp{i}.coll_delivered").value == 1


def test_nic_reduce_root_only_delivery():
    machine = _machine(4)
    mpi = MiniMPI(machine, algo="nic")

    def worker(api, rank):
        comm = mpi.rank(rank)
        return (yield from comm.reduce(api, 2 ** rank, root=0, op="sum"))

    procs = [machine.spawn(i, worker, i) for i in range(4)]
    results = machine.run_all(procs, limit=1e10)
    assert results == [15, None, None, None]
    assert machine.stats.counter("sp0.coll_delivered").value == 1
    assert machine.stats.counter("sp1.coll_delivered").value == 0


def test_nic_rejects_callable_op():
    machine = _machine(2)
    mpi = MiniMPI(machine, algo="nic")

    def worker(api, rank):
        comm = mpi.rank(rank)
        yield from comm.allreduce(api, 1, op=lambda a, b: a + b)

    with pytest.raises(SimulationError):
        machine.run_until(machine.spawn(0, worker, 0), limit=1e9)


def test_nic_rejects_arbitrary_root():
    machine = _machine(4)
    mpi = MiniMPI(machine, algo="nic")

    def worker(api, rank):
        comm = mpi.rank(rank)
        yield from comm.bcast(api, b"x", root=2)

    with pytest.raises(SimulationError):
        machine.run_until(machine.spawn(2, worker, 2), limit=1e9)


def test_nic_bcast_payload_cap():
    machine = _machine(2)
    mpi = MiniMPI(machine, algo="nic")

    def worker(api, rank):
        yield from mpi.rank(rank).bcast(api, bytes(100), root=0)

    with pytest.raises(SimulationError):
        machine.run_until(machine.spawn(0, worker, 0), limit=1e9)


def test_invalid_algo_rejected():
    machine = _machine(2)
    with pytest.raises(ProgramError):
        MiniMPI(machine, algo="quantum")


def test_tree_reduce_canonical_order():
    """Non-commutative op on the tree path: the binomial fold equals the
    ascending-rank fold (decimal concatenation makes order visible)."""
    machine = _machine(6)
    mpi = MiniMPI(machine, algo="tree")
    cat = lambda a, b: int(str(a) + str(b))  # noqa: E731

    def worker(api, rank):
        comm = mpi.rank(rank)
        return (yield from comm.reduce(api, rank + 1, root=0, op=cat))

    procs = [machine.spawn(i, worker, i) for i in range(6)]
    results = machine.run_all(procs, limit=1e10)
    assert results[0] == 123456


def test_tree_allreduce_deterministic_noncommutative():
    machine = _machine(6)
    mpi = MiniMPI(machine, algo="tree")
    cat = lambda a, b: int(str(a) + str(b))  # noqa: E731

    def worker(api, rank):
        comm = mpi.rank(rank)
        return (yield from comm.allreduce(api, rank + 1, op=cat))

    procs = [machine.spawn(i, worker, i) for i in range(6)]
    results = machine.run_all(procs, limit=1e10)
    # every rank agrees, and every contribution appears exactly once
    assert len(set(results)) == 1
    assert sorted(str(results[0])) == list("123456")


@pytest.mark.parametrize("algo", ["flat", "tree", "nic"])
def test_wide_machine_collectives(algo):
    """Beyond the 16-node vdst convention: RAW addressing carries the
    same collectives on a 17-node machine."""
    machine = _machine(17)
    mpi = MiniMPI(machine, algo=algo)
    assert all(node.ctrl.raw_addressing for node in machine.nodes)

    def worker(api, rank):
        comm = mpi.rank(rank)
        yield from comm.barrier(api)
        return (yield from comm.allreduce(api, rank, op="sum"))

    procs = [machine.spawn(i, worker, i) for i in range(17)]
    results = machine.run_all(procs, limit=1e10)
    assert results == [sum(range(17))] * 17


#: 5-rank inputs chosen so every named op has a distinct, nontrivial
#: answer (band keeps 0b101, bxor keeps several bits).
_OP_VALUES = (13, 7, 15, 5, 29)
_OP_EXPECTED = {
    "sum": 69, "prod": 13 * 7 * 15 * 5 * 29, "min": 5, "max": 29,
    "band": 13 & 7 & 15 & 5 & 29, "bor": 13 | 7 | 15 | 5 | 29,
    "bxor": 13 ^ 7 ^ 15 ^ 5 ^ 29,
}


@pytest.mark.parametrize("algo", ["flat", "tree", "nic", "switch"])
def test_every_named_op_on_every_algo(algo):
    """One op table: all seven named ops give the same allreduce on the
    host families, the sP tree and the switch tree."""
    machine = _machine(5)
    mpi = MiniMPI(machine, algo=algo)

    def worker(api, rank):
        comm = mpi.rank(rank)
        out = {}
        for name in _OP_EXPECTED:
            out[name] = yield from comm.allreduce(api, _OP_VALUES[rank],
                                                  op=name)
        return out

    procs = [machine.spawn(i, worker, i) for i in range(5)]
    assert machine.run_all(procs, limit=1e10) == [_OP_EXPECTED] * 5


def test_collective_plan_shared_by_every_node():
    """Machine assembly builds (and validates) one tree for all sPs."""
    machine = _machine(8)
    plans = {id(node.sp.state["collectives"].plan) for node in machine.nodes}
    assert len(plans) == 1


def test_nic_collectives_past_one_byte():
    """A 260-node tree at the image's root: node ids above 255 travel
    as tree parents and children (256 is 0's child and 257's and
    258's parent), so bcast and allreduce complete only if the wire
    carries them whole."""
    n = 260
    machine = _machine(n)
    mpi = MiniMPI(machine, algo="nic")
    plan = mpi.nic_plan
    root = plan.root
    assert plan.parent[256] == root and plan.parent[258] == 256
    assert 259 in plan.children[258]

    def worker(api, rank):
        comm = mpi.rank(rank)
        data = yield from comm.bcast(
            api, b"from-root" if rank == root else None, root=root)
        total = yield from comm.allreduce(api, rank, op="sum")
        return data, total

    procs = [machine.spawn(i, worker, i) for i in range(n)]
    assert machine.run_all(procs, limit=1e10) == \
        [(b"from-root", sum(range(n)))] * n
    assert machine.stats.counter(f"sp{root}.coll_completed").value == 1
    for node in (256, 258, 259):
        assert machine.stats.counter(f"sp{node}.coll_delivered").value == 2
