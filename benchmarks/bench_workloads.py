"""Experiment X-work — system-workload studies.

"Because it will be an actual running system, the investigations will
not be confined to single program simulations, but system workload
level studies."  These benches run the synthetic workload generators —
uniform random messaging, hotspot congestion, ring pipelines, and a
mixed messaging+DMA+S-COMA load — verifying integrity and reporting
delivered throughput.
"""

import pytest

from benchmarks.conftest import record
from repro.bench import fresh_machine
from repro.bench.workloads import hotspot, mixed, pipeline, uniform_random

HEADER = ["workload", "nodes", "metric", "value"]


def _run(machine, procs, verify):
    machine.run_all(procs, limit=1e11)
    done = machine.now  # workload completion, before the drain window
    machine.run(until=machine.now + 500_000)
    assert verify()
    return done


@pytest.mark.parametrize("n_nodes", [2, 4, 8])
def test_uniform_random(benchmark, n_nodes):
    def run():
        machine = fresh_machine(n_nodes)
        procs, verify = uniform_random(machine)
        elapsed = _run(machine, procs, verify)
        total_msgs = n_nodes * 20
        return total_msgs / (elapsed / 1e9)

    rate = benchmark.pedantic(run, rounds=1, iterations=1)
    record("System workloads", HEADER,
           ["uniform random", n_nodes, "msg/s", rate])


@pytest.mark.parametrize("n_nodes", [4, 8])
def test_hotspot(benchmark, n_nodes):
    def run():
        machine = fresh_machine(n_nodes)
        procs, verify = hotspot(machine)
        elapsed = _run(machine, procs, verify)
        total = (n_nodes - 1) * 20
        return total / (elapsed / 1e9)

    rate = benchmark.pedantic(run, rounds=1, iterations=1)
    record("System workloads", HEADER,
           ["hotspot (all -> node 0)", n_nodes, "msg/s at sink", rate])


def test_hotspot_does_not_lose_messages(benchmark):
    """Congestion at the hot node backpressures; nothing is dropped."""

    def run():
        machine = fresh_machine(8)
        procs, verify = hotspot(machine, messages_per_node=30)
        _run(machine, procs, verify)
        drops = sum(v for k, v in machine.stats.report().items()
                    if ".rx_drops." in k)
        return drops

    assert benchmark.pedantic(run, rounds=1, iterations=1) == 0


@pytest.mark.parametrize("n_nodes", [2, 4])
def test_pipeline(benchmark, n_nodes):
    def run():
        machine = fresh_machine(n_nodes)
        procs, verify = pipeline(machine)
        elapsed = _run(machine, procs, verify)
        return elapsed / 10 / n_nodes  # ns per hop

    per_hop = benchmark.pedantic(run, rounds=1, iterations=1)
    record("System workloads", HEADER,
           ["ring pipeline", n_nodes, "ns/hop", per_hop])
    assert per_hop < 10_000


def test_mixed_workload(benchmark):
    def run():
        machine = fresh_machine(2)
        procs, verify = mixed(machine)
        return _run(machine, procs, verify)

    elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    record("System workloads", HEADER,
           ["mixed msg+DMA+S-COMA", 2, "completion us", elapsed / 1000])
