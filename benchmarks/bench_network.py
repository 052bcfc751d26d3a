"""Experiment X-net — Arctic substrate sanity (ref. [1] of the paper).

The network must deliver what the paper assumes of it: per-link
bandwidth near 160 MB/s for full packets, aggregate bandwidth scaling
with node count under random traffic (fat-tree bisection), and the
high network priority overtaking congested low-priority traffic.

``--jobs N`` fans the scenario grid out over processes with
byte-identical output; the CLI exits 1 when a claim fails::

    python -m repro.bench network --jobs 4
"""

from repro.bench import check_claims, print_table, run_sweep, write_record
from repro.common.config import default_config
from repro.net.network import ArcticNetwork  # repro: allow ARCH002 -- raw-fabric benchmark bypasses the machine on purpose
from repro.net.packet import PRIORITY_HIGH, PRIORITY_LOW, Packet, PacketKind  # repro: allow ARCH002 -- raw-fabric benchmark bypasses the machine on purpose
from repro.sim.engine import Engine  # repro: allow ARCH002 -- raw-fabric benchmark bypasses the machine on purpose
from repro.sim.events import AllOf  # repro: allow ARCH002 -- raw-fabric benchmark bypasses the machine on purpose

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
    engine.run_until_triggered(AllOf(engine, procs), limit=1e10)
    total = n_nodes * packets_per_node * 96
    return total / engine.now * 1000.0


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


def _priority_overtaking():
    """A high-priority packet injected behind a low-priority backlog:
    its arrival time and the backlog's drain time."""
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
    engine.run_until_triggered(AllOf(engine, [a, b]), limit=1e10)
    return arrivals


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
        sf, ct = _oneway(n_nodes, False), _oneway(n_nodes, True)
        return {"scenario": f"{n_nodes}-node one-way 96B",
                "metric": "store&fwd / cut-through ns",
                "value": f"{sf:.0f} / {ct:.0f}",
                "store_forward_ns": sf, "cut_through_ns": ct}
    if kind == "priority":
        arrivals = _priority_overtaking()
        return {"scenario": "priority overtaking",
                "metric": "high_arrival/low_backlog_drain",
                "value": arrivals["high"] / arrivals["low_done"],
                "high_ns": arrivals["high"],
                "low_done_ns": arrivals["low_done"]}
    raise ValueError(f"unknown scenario {spec!r}")


def claims(rows):
    """The fabric claims over the sweep's rows, ``{claim: held}``."""
    at = {r["scenario"]: r for r in rows}
    out = {
        # store-and-forward sustains near the 160 MB/s link rate
        "2-node stream > 0.9 x 160 MB/s":
            at["2-node stream"]["value"] > 0.9 * 160.0,
        # a fat tree's aggregate bandwidth scales with the node count
        "random traffic: 8 nodes > 2 x 2 nodes":
            at["random traffic, 8 nodes"]["value"]
            > 2.0 * at["random traffic, 2 nodes"]["value"],
        # the real Arctic forwarded cut-through; store-and-forward (the
        # model default) costs per hop
        **{f"{r['scenario']}: cut-through <= store&fwd":
           r["cut_through_ns"] <= r["store_forward_ns"]
           for r in rows if "cut_through_ns" in r},
        "priority: high arrival < low backlog drain":
            at["priority overtaking"]["high_ns"]
            < at["priority overtaking"]["low_done_ns"],
    }
    return out


def run(args):
    specs = ([("stream",)]
             + [("random", n) for n in (2, 4, 8, 16)]
             + [("cut_through", n) for n in (2, 4, 16)]
             + [("priority",)])
    rows = run_sweep(_network_point, specs, jobs=args.jobs)
    print_table("Arctic network", HEADER,
                [[r["scenario"], r["metric"], r["value"]] for r in rows])
    path = write_record(args.json, "network", {}, {"rows": rows}, {})
    print(f"record: {path}")
    return check_claims(claims(rows))


BENCH = {
    "summary": "Arctic fabric: saturation, bisection scaling, cut-through, "
               "priority",
    "flags": None,
    "run": run,
}
