"""Experiment X-net — Arctic substrate sanity (ref. [1] of the paper).

The network must deliver what the paper assumes of it: per-link
bandwidth near 160 MB/s for full packets, aggregate bandwidth scaling
with node count under random traffic (fat-tree bisection), and the
high network priority overtaking congested low-priority traffic.

Also runnable directly; ``--jobs N`` fans the scenario grid out over
processes with byte-identical output::

    python -m repro.bench network --jobs 4
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_ROOT, os.path.join(_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import pytest

from benchmarks.conftest import record
from repro.common.config import default_config
from repro.net.network import ArcticNetwork  # repro: allow ARCH002 -- raw-fabric benchmark bypasses the machine on purpose
from repro.net.packet import PRIORITY_HIGH, PRIORITY_LOW, Packet, PacketKind  # repro: allow ARCH002 -- raw-fabric benchmark bypasses the machine on purpose
from repro.sim.engine import Engine  # repro: allow ARCH002 -- raw-fabric benchmark bypasses the machine on purpose

HEADER = ["scenario", "metric", "value"]


def _raw_net(n_nodes):
    engine = Engine()
    config = default_config(n_nodes=max(2, n_nodes))
    net = ArcticNetwork(engine, config.network, n_nodes, seed=5)
    return engine, net


def _pkt(net, src, dst, nbytes, priority=PRIORITY_LOW):
    p = Packet(PacketKind.DATA, src, dst, 0, bytes(nbytes),
               priority=priority, route=net.route(src, dst))
    return p


def _stream(n_packets=100, payload=88):
    """One-directional full-packet stream between two adjacent nodes."""
    engine, net = _raw_net(2)

    def sender():
        for _ in range(n_packets):
            yield from net.port(0).inject(_pkt(net, 0, 1, payload))

    def receiver():
        for _ in range(n_packets):
            yield net.port(1).receive(PRIORITY_LOW)

    engine.process(sender())
    done = engine.process(receiver())
    engine.run_until_triggered(done, limit=1e10)
    total_bytes = n_packets * (payload + 8)
    return total_bytes / engine.now * 1000.0  # MB/s


def test_link_saturation(benchmark):
    mb_s = benchmark.pedantic(_stream, rounds=1, iterations=1)
    record("Arctic network", HEADER, ["2-node stream", "wire MB/s", mb_s])
    # store-and-forward pipeline sustains near the 160 MB/s link rate
    assert mb_s > 0.9 * 160.0


def _random_traffic(n_nodes, packets_per_node=40):
    """Each node streams full packets to random partners; returns
    aggregate delivered MB/s."""
    import random

    engine, net = _raw_net(n_nodes)
    rng = random.Random(42)
    # draw every destination up front so sender interleaving cannot
    # perturb the schedule the receivers were sized for
    dests = {}
    expected = [0] * n_nodes
    for src in range(n_nodes):
        picks = []
        for _ in range(packets_per_node):
            dst = rng.randrange(n_nodes - 1)
            dst = dst if dst < src else dst + 1
            picks.append(dst)
            expected[dst] += 1
        dests[src] = picks

    def sender(src):
        for dst in dests[src]:
            yield from net.port(src).inject(_pkt(net, src, dst, 88))

    def receiver(dst, count):
        for _ in range(count):
            yield net.port(dst).receive(PRIORITY_LOW)

    procs = []
    for src in range(n_nodes):
        engine.process(sender(src))
    for dst in range(n_nodes):
        procs.append(engine.process(receiver(dst, expected[dst])))
    from repro.sim.events import AllOf  # repro: allow ARCH002 -- raw-fabric benchmark bypasses the machine on purpose
    engine.run_until_triggered(AllOf(engine, procs), limit=1e10)
    total = n_nodes * packets_per_node * 96
    return total / engine.now * 1000.0


@pytest.mark.parametrize("n_nodes", [2, 4, 8, 16])
def test_bisection_scaling(benchmark, n_nodes):
    mb_s = benchmark.pedantic(_random_traffic, args=(n_nodes,), rounds=1,
                              iterations=1)
    record("Arctic network", HEADER,
           [f"random traffic, {n_nodes} nodes", "aggregate MB/s", mb_s])


def test_aggregate_grows_with_nodes(benchmark):
    def run():
        return _random_traffic(2), _random_traffic(8)

    two, eight = benchmark.pedantic(run, rounds=1, iterations=1)
    # a fat tree's aggregate bandwidth scales with the node count
    assert eight > 2.0 * two


def _oneway(n_nodes, cut_through):
    cfg = default_config(n_nodes=max(2, n_nodes))
    cfg.network.cut_through = cut_through
    engine = Engine()
    net = ArcticNetwork(engine, cfg.network, n_nodes, seed=1)
    got = {}

    def sender():
        pkt = _pkt(net, 0, n_nodes - 1, 88)
        pkt.route = net.route(0, n_nodes - 1)
        yield from net.port(0).inject(pkt)

    def receiver():
        yield net.port(n_nodes - 1).receive(PRIORITY_LOW)
        got["t"] = engine.now

    engine.process(sender())
    done = engine.process(receiver())
    engine.run_until_triggered(done, limit=1e9)
    return got["t"]


@pytest.mark.parametrize("n_nodes", [2, 4, 16])
def test_cut_through_latency(benchmark, n_nodes):
    """X-cutthru: the real Arctic forwarded cut-through; this ablation
    shows what store-and-forward (the model default) costs per hop."""

    def run():
        return _oneway(n_nodes, False), _oneway(n_nodes, True)

    sf, ct = benchmark.pedantic(run, rounds=1, iterations=1)
    record("Arctic network", HEADER,
           [f"{n_nodes}-node one-way 96B", "store&fwd / cut-through ns",
            f"{sf:.0f} / {ct:.0f}"])
    assert ct <= sf


def test_priority_overtakes_congestion(benchmark):
    """A high-priority packet injected behind a low-priority backlog
    arrives before the backlog drains."""

    def run():
        engine, net = _raw_net(2)
        arrivals = {}

        def sender():
            for i in range(10):
                yield from net.port(0).inject(_pkt(net, 0, 1, 88))
            yield from net.port(0).inject(
                _pkt(net, 0, 1, 8, priority=PRIORITY_HIGH))

        def low_receiver():
            for i in range(10):
                yield net.port(1).receive(PRIORITY_LOW)
            arrivals["low_done"] = engine.now

        def high_receiver():
            yield net.port(1).receive(PRIORITY_HIGH)
            arrivals["high"] = engine.now

        engine.process(sender())
        a = engine.process(low_receiver())
        b = engine.process(high_receiver())
        from repro.sim.events import AllOf  # repro: allow ARCH002 -- raw-fabric benchmark bypasses the machine on purpose
        engine.run_until_triggered(AllOf(engine, [a, b]), limit=1e10)
        return arrivals

    arrivals = benchmark.pedantic(run, rounds=1, iterations=1)
    record("Arctic network", HEADER,
           ["priority overtaking", "high_arrival/low_backlog_drain",
            arrivals["high"] / arrivals["low_done"]])
    assert arrivals["high"] < arrivals["low_done"]


# ----------------------------------------------------------------------
# direct CLI (parallel sweep)
# ----------------------------------------------------------------------

def _network_point(spec):
    """One sweep scenario -> a table row dict (module-level, picklable)."""
    kind = spec[0]
    if kind == "stream":
        return {"scenario": "2-node stream", "metric": "wire MB/s",
                "value": _stream()}
    if kind == "random":
        n_nodes = spec[1]
        return {"scenario": f"random traffic, {n_nodes} nodes",
                "metric": "aggregate MB/s",
                "value": _random_traffic(n_nodes)}
    if kind == "cut_through":
        n_nodes = spec[1]
        return {"scenario": f"{n_nodes}-node one-way 96B",
                "metric": "store&fwd / cut-through ns",
                "value": f"{_oneway(n_nodes, False):.0f} / "
                         f"{_oneway(n_nodes, True):.0f}"}
    raise ValueError(f"unknown scenario {spec!r}")


def _flags(parser):
    parser.add_argument("--out", default=os.path.join(
                            os.path.dirname(os.path.abspath(__file__)),
                            "results", "network.json"),
                        help="output JSON path")


def run(args):
    from repro.bench import emit_json, print_table, run_sweep

    specs = ([("stream",)]
             + [("random", n) for n in (2, 4, 8, 16)]
             + [("cut_through", n) for n in (2, 4, 16)])
    rows = run_sweep(_network_point, specs, jobs=args.jobs)
    print_table("Arctic network", HEADER,
                [[r["scenario"], r["metric"], r["value"]] for r in rows])
    path = emit_json(args.json or args.out, {"rows": rows})
    print(f"results: {path}")


BENCH = {
    "summary": "Arctic fabric: saturation, bisection scaling, cut-through",
    "flags": _flags,
    "run": run,
}
