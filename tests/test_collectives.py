"""The collectives subsystem end to end: flat, tree, NIC-offloaded and
in-switch.

Every algorithm family must produce identical results — including on
non-power-of-two machines — and the NIC path must actually run in the
sP firmware (combining counters move, the aP does one enqueue + one
dequeue).
"""

import pytest

import repro
from repro.collectives.firmware import KIND_BCAST
from repro.common.errors import FirmwareError, ProgramError, SimulationError
from repro.lib.mpi import MiniMPI


def _machine(n):
    return repro.StarTVoyager(repro.default_config(n_nodes=n))


@pytest.mark.parametrize("algo", ["flat", "tree", "nic", "switch"])
@pytest.mark.parametrize("n", [1, 4, 5, 6])
def test_algos_agree(algo, n):
    """Every family completes a barrier, delivers a rank-0 bcast to
    every rank and sums on every rank, also at the non-power-of-two
    sizes 5 and 6 (recursive-doubling extras, uneven binomial
    subtrees).  Contributions are distinct powers of two, so a value
    dropped or counted twice changes the sum."""
    machine = _machine(n)
    mpi = MiniMPI(machine, algo=algo)

    def worker(api, rank):
        comm = mpi.rank(rank)
        yield from comm.barrier(api)
        data = yield from comm.bcast(
            api, b"payload-42" if rank == 0 else None)
        yield from comm.barrier(api)
        total = yield from comm.allreduce(api, 1 << rank)
        return data, total

    procs = [machine.spawn(i, worker, i) for i in range(n)]
    assert machine.run_all(procs, limit=1e10) == \
        [(b"payload-42", (1 << n) - 1)] * n


def test_nic_firmware_combines():
    """The offloaded path runs in the sP: combining state completes at
    the root and every node delivers exactly one result per collective,
    while the aP issues a single send and a single recv."""
    machine = _machine(4)
    mpi = MiniMPI(machine, algo="nic")

    def worker(api, rank):
        comm = mpi.rank(rank)
        got = yield from comm.allreduce(api, rank)
        return got, comm.port.sent, comm.port.received

    procs = [machine.spawn(i, worker, i) for i in range(4)]
    results = machine.run_all(procs, limit=1e10)
    for got, sent, received in results:
        assert got == 0 + 1 + 2 + 3
        assert sent == 1  # one enqueue ...
        assert received == 1  # ... one dequeue per collective
    assert machine.stats.counter("sp0.coll_completed").value == 1
    for i in range(4):
        assert machine.stats.counter(f"sp{i}.coll_delivered").value == 1


def test_nic_rejects_arbitrary_root():
    """The firmware starts a broadcast only at the tree's root, rank 0:
    a bcast request reaching any other sP is refused."""
    machine = _machine(4)
    mpi = MiniMPI(machine, algo="nic")
    comm = mpi.rank(2)

    def worker(api):
        yield from comm._nic_request(api, KIND_BCAST, 0, 0x8000, b"x")

    machine.spawn(2, worker)
    with pytest.raises(SimulationError) as exc:
        machine.run(1e9)
    assert isinstance(exc.value.__cause__, FirmwareError)


def test_nic_bcast_payload_cap():
    machine = _machine(2)
    mpi = MiniMPI(machine, algo="nic")

    def worker(api, rank):
        yield from mpi.rank(rank).bcast(api, bytes(100))

    with pytest.raises(SimulationError):
        machine.run_until(machine.spawn(0, worker, 0), limit=1e9)


def test_invalid_algo_rejected():
    machine = _machine(2)
    with pytest.raises(ProgramError):
        MiniMPI(machine, algo="quantum")


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
        return (yield from comm.allreduce(api, rank))

    procs = [machine.spawn(i, worker, i) for i in range(17)]
    results = machine.run_all(procs, limit=1e10)
    assert results == [sum(range(17))] * 17


def test_collective_plan_shared_by_every_node():
    """Machine assembly builds (and validates) one tree for all sPs,
    and MiniMPI's ``tree`` and ``nic`` algorithms walk that same one."""
    machine = _machine(8)
    plans = {id(node.sp.state["collectives"].plan) for node in machine.nodes}
    plans |= {id(MiniMPI(machine, algo=a).plan) for a in ("tree", "nic")}
    assert len(plans) == 1


def test_nic_collectives_past_one_byte():
    """A 260-node tree: node ids above 255 travel as tree parents and
    children (256 is 0's child and 257's and 258's parent), so bcast
    and allreduce complete only if the wire carries them whole."""
    n = 260
    machine = _machine(n)
    mpi = MiniMPI(machine, algo="nic")
    plan = mpi.plan
    assert plan.parent[256] == 0 and plan.parent[258] == 256
    assert 259 in plan.children[258]

    def worker(api, rank):
        comm = mpi.rank(rank)
        data = yield from comm.bcast(
            api, b"from-root" if rank == 0 else None)
        total = yield from comm.allreduce(api, rank)
        return data, total

    procs = [machine.spawn(i, worker, i) for i in range(n)]
    assert machine.run_all(procs, limit=1e10) == \
        [(b"from-root", sum(range(n)))] * n
    assert machine.stats.counter("sp0.coll_completed").value == 1
    for node in (256, 258, 259):
        assert machine.stats.counter(f"sp{node}.coll_delivered").value == 2
