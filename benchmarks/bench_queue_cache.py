"""Experiment X-cache — receive-queue caching ablation (§4).

"Selectively caching queues enables the NIU to support a large number
of logical destinations efficiently, while using only a small amount of
resources."  The ablation: deliver a stream to a hardware-resident
logical queue vs a non-resident one (firmware miss service into a DRAM
ring), and mix the two.

Expected shape: resident delivery is several times faster per message;
mixed traffic degrades only the non-resident share.
"""


from benchmarks.conftest import record
from repro.bench import fresh_machine
from repro.firmware.msg import declare_dram_queue  # repro: allow ARCH002 -- measures firmware queue handling below the API
from repro.mp.basic import BasicPort
from repro.mp.dramq import DramQueueReader
from repro.mp import vdst_for
from repro.scenarios import measure

HEADER = ["queue kind", "msgs", "ns_per_msg"]
COUNT = 40


def _resident_stream():
    return measure("basic_stream", payload_bytes=1,
                   count=COUNT)["elapsed_ns"] / COUNT


def _nonresident_stream():
    machine = fresh_machine(2)
    node1 = machine.node(1)
    ring = declare_dram_queue(node1.sp, logical=12, base=0x30000, depth=64)
    reader = DramQueueReader(ring)
    p0 = BasicPort(machine.node(0), 0, 0)

    def sender(api):
        for i in range(COUNT):
            yield from p0.send(api, vdst_for(1, 12), bytes([i]))

    def receiver(api):
        for _ in range(COUNT):
            yield from reader.recv(api)

    t0 = machine.now
    machine.run_all([machine.spawn(0, sender), machine.spawn(1, receiver)],
                    limit=1e10)
    return (machine.now - t0) / COUNT


def test_resident_queue_stream(benchmark):
    per_msg = benchmark.pedantic(_resident_stream, rounds=1, iterations=1)
    record("Receive-queue caching ablation", HEADER,
           ["hardware-resident", COUNT, per_msg])
    assert per_msg < 3_000


def test_nonresident_queue_stream(benchmark):
    per_msg = benchmark.pedantic(_nonresident_stream, rounds=1, iterations=1)
    record("Receive-queue caching ablation", HEADER,
           ["miss-serviced (DRAM ring)", COUNT, per_msg])


def test_residency_speedup(benchmark):
    def both():
        return _resident_stream(), _nonresident_stream()

    fast, slow = benchmark.pedantic(both, rounds=1, iterations=1)
    record("Receive-queue caching ablation", HEADER,
           ["speedup (slow/fast)", "", slow / fast])
    assert slow > 1.5 * fast


def test_mixed_traffic_isolation(benchmark):
    """Resident traffic keeps its speed while miss traffic interleaves."""

    def run():
        machine = fresh_machine(2)
        node1 = machine.node(1)
        ring = declare_dram_queue(node1.sp, logical=12, base=0x30000,
                                  depth=64)
        reader = DramQueueReader(ring)
        p0 = BasicPort(machine.node(0), 0, 0)
        p0b = BasicPort(machine.node(0), 1, 1)
        p1 = BasicPort(node1, 0, 0)
        marks = {}

        def fast_sender(api):
            for i in range(COUNT):
                yield from p0.send(api, vdst_for(1, 0), bytes([i]))

        def slow_sender(api):
            for i in range(COUNT):
                yield from p0b.send(api, vdst_for(1, 12), bytes([i]))

        def fast_receiver(api):
            t0 = api.now
            for _ in range(COUNT):
                yield from p1.recv(api)
            marks["fast"] = (api.now - t0) / COUNT

        def slow_receiver(api):
            for _ in range(COUNT):
                yield from reader.recv(api)

        machine.run_all([
            machine.spawn(0, fast_sender), machine.spawn(0, slow_sender),
            machine.spawn(1, fast_receiver), machine.spawn(1, slow_receiver),
        ], limit=1e10)
        return marks["fast"]

    mixed_fast = benchmark.pedantic(run, rounds=1, iterations=1)
    record("Receive-queue caching ablation", HEADER,
           ["resident, under mixed load", COUNT, mixed_fast])
    # the shared sender aP halves the arrival rate, but the resident path
    # itself must stay well under double the sender-limited interval —
    # i.e. residency does not degrade to miss-service behaviour
    assert mixed_fast < 2.0 * _nonresident_stream()
