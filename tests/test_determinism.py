"""Whole-machine determinism: identical runs produce identical histories.

Mechanism comparisons are only meaningful if repeated runs are
bit-identical — the paper's whole premise is "keeping all other
parameters constant", and scheduling noise would break it.

Also guards the zero-copy data plane: payloads ride as memoryviews of
live buffers until a protection boundary pins them, so these tests pin
down exactly which side of each boundary aliases and which copies.
"""


import pytest

import repro
from repro.core.blocktransfer import BlockTransferExperiment
from repro.lib.mpi import MiniMPI
from repro.mem.backing import ByteBacking
from repro.mp.basic import BasicPort
from repro.net.packet import Packet, PacketKind
from repro.niu.niu import vdst_for
from repro.obs.snapshot import comparable


def _messaging_trace():
    machine = repro.StarTVoyager(repro.default_config(n_nodes=4))
    ports = [BasicPort(machine.node(n), 0, 0) for n in range(4)]
    log = []

    def worker(api, rank):
        for i in range(6):
            dst = (rank + 1 + i) % 4
            if dst != rank:
                yield from ports[rank].send(api, vdst_for(dst, 0),
                                            bytes([rank, i]))
        for _ in range(_incoming(rank)):
            src, payload = yield from ports[rank].recv(api)
            log.append((api.now, rank, src, bytes(payload)))

    def _incoming(rank):
        count = 0
        for sender in range(4):
            for i in range(6):
                if (sender + 1 + i) % 4 == rank and rank != sender:
                    count += 1
        return count

    procs = [machine.spawn(n, worker, n) for n in range(4)]
    machine.run_all(procs, limit=1e10)
    return log, machine.now


def test_messaging_history_identical():
    (log1, t1) = _messaging_trace()
    (log2, t2) = _messaging_trace()
    assert t1 == t2
    assert log1 == log2


def test_block_transfer_identical():
    def run():
        machine = repro.StarTVoyager(repro.default_config(n_nodes=2))
        r = BlockTransferExperiment(machine).run(3, 4096)
        return (r.notify_latency_ns, r.data_ready_latency_ns,
                r.sender_sp_busy_ns, r.receiver_sp_busy_ns)

    assert run() == run()


def test_statistics_identical():
    def run():
        machine = repro.StarTVoyager(repro.default_config(n_nodes=2))
        BlockTransferExperiment(machine).run(2, 2048)
        return comparable(machine.metrics())

    assert run() == run()


def _mixed_workload():
    """Basic + DMA/block hardware + S-COMA + NIC collective, one machine.

    Exercises every data-plane mechanism back to back so the full
    metrics snapshot covers the kernel's fast paths, the zero-copy
    SRAM/DRAM moves, the S-COMA landing window, and the sP collective
    firmware in a single event history.
    """
    machine = repro.StarTVoyager(repro.default_config(n_nodes=2))
    mpi = MiniMPI(machine, algo="nic")
    exp = BlockTransferExperiment(machine)
    exp.run(1, 1024)   # Basic messages, aP does everything
    exp.run(3, 2048)   # DMA request + hardware block units
    exp.run(4, 1024)   # S-COMA landing window, optimistic notify

    def worker(api, rank):
        comm = mpi.rank(rank)
        yield from comm.barrier(api)
        return (yield from comm.allreduce(api, rank + 1))

    procs = [machine.spawn(n, worker, n) for n in range(2)]
    sums = machine.run_all(procs, limit=1e10)
    snap = machine.metrics()
    # sim.wall holds host wall-clock gauges — nondeterministic by
    # design, and documented as strip-before-compare (obs/snapshot.py)
    snap["sim"].pop("wall")
    return sums, snap


def test_mixed_workload_metrics_identical():
    """The acceptance bar: two identical mixed runs produce identical
    *full* metrics snapshots — counters, percentiles, busy times,
    occupancies, everything but the wall-clock gauges."""
    sums1, snap1 = _mixed_workload()
    sums2, snap2 = _mixed_workload()
    assert sums1 == sums2 == [3, 3]
    assert snap1 == snap2


def test_parallel_sweep_matches_serial():
    """run_sweep's determinism contract: merged results are identical
    for any job count (here: inline vs a 2-process pool)."""
    from repro.bench import block_transfer_point, run_sweep

    specs = [(1, 256), (3, 1024)]
    assert (run_sweep(block_transfer_point, specs, jobs=1)
            == run_sweep(block_transfer_point, specs, jobs=2))


def test_seed_changes_routing_not_results():
    """Different fat-tree seeds change routes but not message contents."""

    def run(seed):
        cfg = repro.default_config(n_nodes=8)
        cfg.seed = seed
        machine = repro.StarTVoyager(cfg)
        p0 = BasicPort(machine.node(0), 0, 0)
        p7 = BasicPort(machine.node(7), 0, 0)

        def s(api):
            yield from p0.send(api, vdst_for(7, 0), b"seeded")

        def r(api):
            return (yield from p7.recv(api))

        machine.spawn(0, s)
        return machine.run_until(machine.spawn(7, r), limit=1e9)

    assert run(1) == run(99) == (0, b"seeded")


# ----------------------------------------------------------------------
# zero-copy aliasing boundaries
# ----------------------------------------------------------------------

def test_backing_view_is_live_readonly_alias():
    """ByteBacking.view aliases the live store (later writes show
    through) but cannot be written through — the producer side of the
    zero-copy contract."""
    backing = ByteBacking(64)
    backing.write(0, b"abcd")
    view = backing.view(0, 4)
    assert bytes(view) == b"abcd"
    backing.write(0, b"wxyz")
    assert bytes(view) == b"wxyz"
    with pytest.raises(TypeError):
        view[0] = 0


def test_packet_pins_mutable_payload():
    """Packet construction is a protection boundary: a mutable buffer
    (or view of one) is materialized, so mutating it afterwards cannot
    corrupt the in-flight packet."""
    buf = bytearray(b"hello-wire")
    pkt = Packet(PacketKind.DATA, 0, 1, 0, memoryview(buf))
    wire_before = pkt.wire_bytes
    buf[:] = b"XXXXXXXXXX"
    assert pkt.payload == b"hello-wire"
    assert pkt.wire_bytes == wire_before


def test_queue_slot_recycling_keeps_payloads_intact():
    """Streaming more distinct messages than the rx queue holds forces
    every SRAM slot to be recycled; each delivered payload must still
    match what was sent (guards the tx/rx slot-view discipline)."""
    machine = repro.StarTVoyager(repro.default_config(n_nodes=2))
    p0 = BasicPort(machine.node(0), 0, 0)
    p1 = BasicPort(machine.node(1), 0, 0)
    count = 32
    payloads = [bytes([i] * 24) for i in range(count)]

    def sender(api):
        for p in payloads:
            yield from p0.send(api, vdst_for(1, 0), p)

    def receiver(api):
        got = []
        for _ in range(count):
            _src, payload = yield from p1.recv(api)
            got.append(bytes(payload))
        return got

    machine.spawn(0, sender)
    got = machine.run_until(machine.spawn(1, receiver), limit=1e10)
    assert got == payloads
