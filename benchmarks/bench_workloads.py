"""Experiment X-work — system-workload studies.

"Because it will be an actual running system, the investigations will
not be confined to single program simulations, but system workload
level studies."  These benches run the synthetic workload generators —
uniform random messaging, hotspot congestion, ring pipelines, and a
mixed messaging+DMA+S-COMA load — verifying integrity and reporting
delivered throughput.
"""

from repro.bench import check_claims, fresh_machine, print_table, write_record
from repro.bench.workloads import hotspot, mixed, pipeline, uniform_random

HEADER = ["workload", "nodes", "metric", "value"]


def _run(machine, procs, verify):
    """Run a workload, then a drain window: its completion time and
    whether every message arrived intact."""
    machine.run_all(procs, limit=1e11)
    done = machine.now  # workload completion, before the drain window
    machine.run(until=machine.now + 500_000)
    return done, verify()


def _uniform(n_nodes):
    machine = fresh_machine(n_nodes)
    elapsed, ok = _run(machine, *uniform_random(machine))
    return n_nodes * 20 / (elapsed / 1e9), ok


def _hotspot(n_nodes):
    machine = fresh_machine(n_nodes)
    elapsed, ok = _run(machine, *hotspot(machine))
    return (n_nodes - 1) * 20 / (elapsed / 1e9), ok


def _hotspot_drops():
    """Receive drops under a heavier 8-node hot spot (congestion at the
    hot node must backpressure, not drop)."""
    machine = fresh_machine(8)
    _done, ok = _run(machine, *hotspot(machine, messages_per_node=30))
    counters = machine.metrics()["counters"]
    return sum(v for k, v in counters.items() if ".rx_drops." in k), ok


def _pipeline(n_nodes):
    machine = fresh_machine(n_nodes)
    elapsed, ok = _run(machine, *pipeline(machine))
    return elapsed / 10 / n_nodes, ok  # ns per hop


def _mixed():
    machine = fresh_machine(2)
    elapsed, ok = _run(machine, *mixed(machine))
    return elapsed / 1000, ok


def run(args):
    points = {
        **{("uniform random", n, "msg/s"): _uniform(n) for n in (2, 4, 8)},
        **{("hotspot (all -> node 0)", n, "msg/s at sink"): _hotspot(n)
           for n in (4, 8)},
        ("hotspot, 30 msgs/node", 8, "rx drops"): _hotspot_drops(),
        **{("ring pipeline", n, "ns/hop"): _pipeline(n) for n in (2, 4)},
        ("mixed msg+DMA+S-COMA", 2, "completion us"): _mixed(),
    }
    print_table("System workloads", HEADER,
                [[*key, value] for key, (value, _ok) in points.items()])
    path = write_record(args.json, "workloads", {},
                        {"rows": [{"workload": w, "nodes": n, "metric": m,
                                   "value": value, "verified": ok}
                                  for (w, n, m), (value, ok)
                                  in points.items()]}, {})
    print(f"record: {path}")
    claims = {f"{w} on {n} nodes delivered every message intact": ok
              for (w, n, _m), (_value, ok) in points.items()}
    claims["hot spot drops nothing (backpressure)"] = (
        points[("hotspot, 30 msgs/node", 8, "rx drops")][0] == 0)
    for n in (2, 4):
        claims[f"ring pipeline on {n} nodes < 10000 ns/hop"] = (
            points[("ring pipeline", n, "ns/hop")][0] < 10_000)
    return check_claims(claims)


BENCH = {
    "summary": "X-work: uniform, hot-spot, pipeline and mixed system "
               "workloads",
    "flags": None,
    "run": run,
}
