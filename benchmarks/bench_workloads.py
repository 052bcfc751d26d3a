"""Experiment X-work — system-workload studies.

"Because it will be an actual running system, the investigations will
not be confined to single program simulations, but system workload
level studies."  This bench measures the registered workload scenarios
``uniform_random``, ``hotspot``, ``pipeline`` and ``mechanism_mix``
(:mod:`repro.scenarios`), holds each to its own check and reports
delivered throughput.
"""

from repro.bench import check_claims, print_table, write_record
from repro.scenarios import run_scenario, scenario

HEADER = ["workload", "nodes", "metric", "value"]


def _point(name, n_nodes, key, **params):
    """One registered workload on a fresh machine: its result's ``key``
    (or ``rx_drops``, the receive drops summed over every queue: a hot
    spot must backpressure, not drop) and whether the scenario's own
    check passed."""
    scen = scenario(name, **params)
    run = run_scenario(scen, n_nodes=n_nodes)
    result = run.results[0]
    drops = sum(v for k, v in run.snapshot["counters"].items()
                if ".rx_drops." in k)
    return dict(result, rx_drops=drops)[key], scen.check(result) is None


def run(args):
    mix_ns, mix_ok = _point("mechanism_mix", 2, "elapsed_ns")
    points = {
        **{("uniform random", n, "msg/s"):
           _point("uniform_random", n, "msgs_per_s") for n in (2, 4, 8)},
        **{("hotspot (all -> node 0)", n, "msg/s at sink"):
           _point("hotspot", n, "msgs_per_s") for n in (4, 8)},
        ("hotspot, 30 msgs/node", 8, "rx drops"):
            _point("hotspot", 8, "rx_drops", messages_per_node=30),
        **{("ring pipeline", n, "ns/hop"):
           _point("pipeline", n, "ns_per_hop") for n in (2, 4)},
        ("mixed msg+DMA+S-COMA", 2, "completion us"): (mix_ns / 1000, mix_ok),
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
