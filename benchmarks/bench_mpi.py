"""Experiment X-mpi — library-layer scaling: mini-MPI collectives.

Layer 0 exists so applications never touch the NIU directly; its cost
must stay proportional to the point-to-point messages it issues.  These
benches measure ping-pong vs payload (fragmentation) and collective
completion time vs node count on the linear-algorithm collectives.
"""

import pytest

from benchmarks.conftest import record
from repro.scenarios import measure

HEADER = ["operation", "scale", "us"]


def _pingpong(payload_bytes):
    return measure("mpi_pingpong", payload_bytes=payload_bytes) / 1000.0


@pytest.mark.parametrize("payload", [8, 78, 256, 1024])
def test_pingpong_fragmentation(benchmark, payload):
    us = benchmark.pedantic(_pingpong, args=(payload,), rounds=1,
                            iterations=1)
    record("mini-MPI scaling", HEADER,
           ["ping-pong one-way", f"{payload} B", us])


def test_fragmentation_cost_linear(benchmark):
    """Above one fragment (78 B) latency grows roughly linearly with the
    fragment count, not worse."""

    def run():
        return _pingpong(78), _pingpong(4 * 78)

    one, four = benchmark.pedantic(run, rounds=1, iterations=1)
    assert four < 6 * one  # 4 fragments cost < 6x one fragment


def _collective(name, n_nodes):
    return measure("collective", n_nodes, collective=name, algo="flat",
                   repeats=1, payload_bytes=64) / 1000.0


@pytest.mark.parametrize("name", ["barrier", "bcast", "allreduce"])
@pytest.mark.parametrize("n_nodes", [2, 4, 8])
def test_collectives(benchmark, name, n_nodes):
    us = benchmark.pedantic(_collective, args=(name, n_nodes), rounds=1,
                            iterations=1)
    record("mini-MPI scaling", HEADER, [name, f"{n_nodes} nodes", us])


def test_collective_scaling_linear(benchmark):
    """The linear-tree collectives scale ~linearly in node count (the
    expected cost of the simple algorithms, not a platform pathology)."""

    def run():
        return _collective("barrier", 2), _collective("barrier", 8)

    two, eight = benchmark.pedantic(run, rounds=1, iterations=1)
    assert eight < 8 * two
