"""Experiment X-mp — §5 mechanism microbenchmarks.

One-way latency and streaming rate of the default message-passing
mechanisms: Express (one store / one load), Basic, TagOn-augmented
Basic, and the mini-MPI library on top.  The paper presents these
mechanisms qualitatively; the expected shape is Express < Basic < MPI
for latency, and TagOn raising Basic's per-message data capacity
at marginal cost.
"""

import pytest

from benchmarks.conftest import record
from repro.bench import fresh_machine
from repro.mp.basic import BasicPort
from repro.mp import vdst_for
from repro.scenarios import measure

HEADER = ["mechanism", "metric", "value"]


def test_express_latency(benchmark):
    latency = benchmark.pedantic(measure, args=("express",), rounds=1,
                                 iterations=1)
    record("Mechanism microbenchmarks", HEADER,
           ["express", "one-way ns (5 B)", latency])
    assert latency < 2_000


@pytest.mark.parametrize("payload", [8, 88])
def test_basic_latency(benchmark, payload):
    latency = benchmark.pedantic(measure, args=("basic",),
                                 kwargs={"payload_bytes": payload},
                                 rounds=1, iterations=1)
    record("Mechanism microbenchmarks", HEADER,
           ["basic", f"one-way ns ({payload} B)", latency])
    assert latency < 10_000


def test_express_beats_basic(benchmark):
    def both():
        return measure("express"), measure("basic", payload_bytes=8)

    express, basic = benchmark.pedantic(both, rounds=1, iterations=1)
    assert express < basic


def test_tagon_amortizes_data(benchmark):
    """Per-byte cost of an 80-byte TagOn send beats eleven 8-byte sends."""

    def run():
        machine = fresh_machine(2)
        p0 = BasicPort(machine.node(0), 0, 0)
        p1 = BasicPort(machine.node(1), 0, 0)
        staging = machine.node(0).niu.alloc_asram(80, align=16)

        def sender(api):
            tag = yield from p0.stage_tagon(api, staging, bytes(80))
            for _ in range(20):
                yield from p0.send(api, vdst_for(1, 0), b"hdr", tagon=tag)

        def receiver(api):
            for _ in range(20):
                yield from p1.recv(api)

        t0 = machine.now
        machine.run_all([machine.spawn(0, sender),
                         machine.spawn(1, receiver)])
        return (machine.now - t0) / 20

    per_msg = benchmark.pedantic(run, rounds=1, iterations=1)
    record("Mechanism microbenchmarks", HEADER,
           ["basic+tagon", "per-message ns (83 B)", per_msg])
    # 83 bytes per message must cost far less than 11 separate sends
    assert per_msg < 5 * measure("basic", payload_bytes=8)


def test_basic_stream_rate(benchmark):
    stats = benchmark.pedantic(measure, args=("basic_stream",), rounds=1,
                               iterations=1)
    record("Mechanism microbenchmarks", HEADER,
           ["basic", "stream MB/s (64 B msgs)", stats["mb_per_s"]])
    record("Mechanism microbenchmarks", HEADER,
           ["basic", "stream msgs/s", stats["msgs_per_s"]])
    assert stats["mb_per_s"] > 30


def test_mpi_latency(benchmark):
    latency = benchmark.pedantic(measure, args=("mpi_pingpong",), rounds=1,
                                 iterations=1)
    record("Mechanism microbenchmarks", HEADER,
           ["mini-MPI", "one-way ns (64 B)", latency])
    # library layering costs something, but not an order of magnitude
    assert latency < 10 * measure("basic", payload_bytes=64)
