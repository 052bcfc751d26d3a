"""The mini-MPI library: point-to-point, fragmentation, collectives."""

import pytest

import repro
from repro.lib.mpi import FRAG_DATA, MiniMPI


@pytest.fixture
def m2():
    return repro.StarTVoyager(repro.default_config(n_nodes=2))


@pytest.fixture
def m4():
    return repro.StarTVoyager(repro.default_config(n_nodes=4))


def test_send_recv_small(m2):
    mpi = MiniMPI(m2)

    def a(api):
        yield from mpi.rank(0).send(api, 1, b"tiny", tag=3)

    def b(api):
        return (yield from mpi.rank(1).recv(api))

    m2.spawn(0, a)
    src, tag, data = m2.run_until(m2.spawn(1, b), limit=1e9)
    assert (src, tag, data) == (0, 3, b"tiny")


def test_fragmentation_roundtrip(m2):
    mpi = MiniMPI(m2)
    big = bytes((i * 11 + 3) & 0xFF for i in range(5 * FRAG_DATA + 17))

    def a(api):
        yield from mpi.rank(0).send(api, 1, big)

    def b(api):
        return (yield from mpi.rank(1).recv(api, src=0))

    m2.spawn(0, a)
    _src, _tag, data = m2.run_until(m2.spawn(1, b), limit=1e10)
    assert data == big


def test_empty_message(m2):
    mpi = MiniMPI(m2)

    def a(api):
        yield from mpi.rank(0).send(api, 1, b"")

    def b(api):
        return (yield from mpi.rank(1).recv(api))

    m2.spawn(0, a)
    _src, _tag, data = m2.run_until(m2.spawn(1, b), limit=1e9)
    assert data == b""


def test_tag_matching_out_of_order(m2):
    mpi = MiniMPI(m2)

    def a(api):
        yield from mpi.rank(0).send(api, 1, b"first", tag=1)
        yield from mpi.rank(0).send(api, 1, b"second", tag=2)

    def b(api):
        r = mpi.rank(1)
        # ask for tag 2 first: tag 1 gets buffered
        _s, _t, d2 = yield from r.recv(api, tag=2)
        _s, _t, d1 = yield from r.recv(api, tag=1)
        return d1, d2

    m2.spawn(0, a)
    d1, d2 = m2.run_until(m2.spawn(1, b), limit=1e9)
    assert (d1, d2) == (b"first", b"second")


def test_wildcard_source(m4):
    mpi = MiniMPI(m4)

    def sender(api, rank):
        yield from mpi.rank(rank).send(api, 0, bytes([rank]), tag=9)

    def collector(api):
        got = set()
        r = mpi.rank(0)
        for _ in range(3):
            src, _tag, data = yield from r.recv(api, tag=9)
            got.add((src, data[0]))
        return got

    for n in (1, 2, 3):
        m4.spawn(n, sender, n)
    got = m4.run_until(m4.spawn(0, collector), limit=1e10)
    assert got == {(1, 1), (2, 2), (3, 3)}


def test_wildcard_receive_in_arrival_order():
    """A wildcard receive returns the earliest-completed match, even
    when a later message's ``(src, tag)`` key was used before: rank 0
    drains 1's first tag-5 message, then, blocked on tag 9, takes in 2's
    tag-5 message before 1's second one."""
    m3 = repro.StarTVoyager(repro.default_config(n_nodes=3))
    mpi = MiniMPI(m3)

    def one(api):
        r = mpi.rank(1)
        yield from r.send(api, 0, b"first", tag=5)
        yield from api.compute(20000)
        yield from r.send(api, 0, b"late", tag=5)
        yield from r.send(api, 0, b"go", tag=9)

    def two(api):
        yield from api.compute(5000)
        yield from mpi.rank(2).send(api, 0, b"early", tag=5)

    def zero(api):
        r = mpi.rank(0)
        _s, _t, first = yield from r.recv(api, src=1, tag=5)
        yield from r.recv(api, src=1, tag=9)
        got = [first]
        for _ in range(2):
            src, _t, data = yield from r.recv(api, tag=5)
            got.append((src, data))
        return got

    m3.spawn(1, one)
    m3.spawn(2, two)
    got = m3.run_until(m3.spawn(0, zero), limit=1e10)
    assert got == [b"first", (2, b"early"), (1, b"late")]


def test_barrier_synchronizes(m4):
    mpi = MiniMPI(m4)
    after = []

    def worker(api, rank):
        comm = mpi.rank(rank)
        yield from api.compute(rank * 5000)  # skewed arrival
        yield from comm.barrier(api)
        after.append((rank, api.now))

    procs = [m4.spawn(n, worker, n) for n in range(4)]
    m4.run_all(procs, limit=1e10)
    times = [t for _r, t in after]
    # nobody leaves the barrier much before the slowest arrives
    slowest_arrival = m4.config.ap.insn_ns(3 * 5000)
    assert min(times) >= slowest_arrival


def test_bcast(m4):
    mpi = MiniMPI(m4)

    def worker(api, rank):
        comm = mpi.rank(rank)
        data = yield from comm.bcast(
            api, b"broadcast-data" if rank == 0 else None)
        return data

    procs = [m4.spawn(n, worker, n) for n in range(4)]
    assert m4.run_all(procs, limit=1e10) == [b"broadcast-data"] * 4


def test_bad_rank_rejected(m2):
    mpi = MiniMPI(m2)

    def a(api):
        yield from mpi.rank(0).send(api, 7, b"x")

    from repro.common.errors import SimulationError
    with pytest.raises(SimulationError):
        m2.run_until(m2.spawn(0, a), limit=1e8)


# -- flat-collective edge cases ---------------------------------------------------


def test_size_one_collectives():
    """A single-rank communicator completes every collective locally."""
    m1 = repro.StarTVoyager(repro.default_config(n_nodes=1))
    mpi = MiniMPI(m1)

    def worker(api):
        comm = mpi.rank(0)
        yield from comm.barrier(api)
        data = yield from comm.bcast(api, b"solo")
        total = yield from comm.allreduce(api, 7)
        return data, total

    result = m1.run_until(m1.spawn(0, worker), limit=1e9)
    assert result == (b"solo", 7)


def test_non_power_of_two_collectives():
    """Flat collectives at sizes 3 and 6 (nothing assumes powers of two)."""
    for n in (3, 6):
        m = repro.StarTVoyager(repro.default_config(n_nodes=n))
        mpi = MiniMPI(m)

        def worker(api, rank):
            comm = mpi.rank(rank)
            total = yield from comm.allreduce(api, rank + 1)
            yield from comm.barrier(api)
            again = yield from comm.allreduce(api, rank)
            return total, again

        procs = [m.spawn(i, worker, i) for i in range(n)]
        expected = n * (n + 1) // 2
        assert m.run_all(procs, limit=1e10) == [(expected, expected - n)] * n


def test_zero_byte_bcast(m4):
    mpi = MiniMPI(m4)

    def worker(api, rank):
        comm = mpi.rank(rank)
        return (yield from comm.bcast(api, b"" if rank == 0 else None))

    procs = [m4.spawn(n, worker, n) for n in range(4)]
    assert m4.run_all(procs, limit=1e10) == [b""] * 4


def test_reserved_tag_space_rejected(m2):
    """User tags stay below 0x8000; the upper half belongs to collective
    sequencing (the old 8-bit wrap masked this entirely)."""
    mpi = MiniMPI(m2)

    def a(api):
        yield from mpi.rank(0).send(api, 1, b"x", tag=0x8000)

    from repro.common.errors import SimulationError
    with pytest.raises(SimulationError):
        m2.run_until(m2.spawn(0, a), limit=1e8)


def test_many_collectives_no_tag_aliasing(m2):
    """Far more than 256 back-to-back collectives: the widened sequence
    space keeps consecutive calls from stealing each other's messages
    (the original _coll_tag wrapped at 8 bits)."""
    mpi = MiniMPI(m2)
    rounds = 300

    def worker(api, rank):
        comm = mpi.rank(rank)
        out = []
        for i in range(rounds):
            out.append((yield from comm.allreduce(api, rank + i)))
        return out

    procs = [m2.spawn(n, worker, n) for n in range(2)]
    results = m2.run_all(procs, limit=1e11)
    expected = [2 * i + 1 for i in range(rounds)]
    assert results == [expected, expected]


def test_nic_communicators_on_separate_queues_stay_apart(m4):
    """Two ``nic`` communicators run the same collective sequence numbers
    at once; the sP keys each by its reply queue, so their sums never
    fold into each other."""
    ids = MiniMPI(m4, tx_index=2, rx_logical=2, algo="nic")
    offset = MiniMPI(m4, tx_index=3, rx_logical=3, algo="nic")

    def worker(api, mpi, value):
        return (yield from mpi.rank(api.node_id).allreduce(api, value))

    procs = [m4.spawn(n, worker, ids, n) for n in range(4)]
    procs += [m4.spawn(n, worker, offset, 100 + n) for n in range(4)]
    assert m4.run_all(procs, limit=1e10) == [6] * 4 + [406] * 4
