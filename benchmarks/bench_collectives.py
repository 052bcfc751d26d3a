"""Experiment X-coll — NIC-offloaded collectives vs host algorithms.

The ``repro.collectives`` subsystem claims that moving collective
combining into the sP firmware turns the O(N) flat algorithms into
O(log N) tree sweeps with a single aP enqueue + dequeue per call.  This
bench regenerates that scaling story: barrier / bcast / allreduce
completion time versus node count (2-32 nodes, crossing the 16-node
byte-vdst boundary into RAW addressing) for all three ``algo`` families.

The telltale is the *per-doubling increment*: doubling the node count
adds a roughly constant amount for a logarithmic algorithm but a
doubling amount for a linear one.  The NIC path carries a higher
constant (every hop pays sP dispatch + combining occupancy), so the
curves are about growth rates, not absolute crossover at these sizes.

The CLI fans the grid out over processes with byte-identical output
(every point is an independent seeded machine), writes its record to
``benchmarks/results/collectives.json`` and exits 1 when a scaling
claim fails (see :func:`claims`)::

    python -m repro.bench collectives --jobs 4
"""

from repro.bench import check_claims, print_table, run_sweep, write_record
from repro.scenarios import measure

HEADER = ["collective", "algo"] + [f"{n} nodes (us)" for n in (2, 4, 8, 16, 32)]
NODES = [2, 4, 8, 16, 32]
ALGOS = ["flat", "tree", "nic"]
COLLECTIVES = ["barrier", "bcast", "allreduce"]


def collective_point(spec):
    """One point: ``(name, n_nodes, algo, repeats)`` -> result row."""
    name, n_nodes, algo, repeats = spec
    return {
        "collective": name,
        "n_nodes": n_nodes,
        "algo": algo,
        "latency_ns": measure("collective", n_nodes, collective=name,
                              algo=algo, repeats=repeats),
    }


def _increments(xs):
    return [b - a for a, b in zip(xs, xs[1:])]


def claims(series):
    """The scaling claims over ``series[name][algo][n_nodes]``.

    The acceptance criterion: NIC grows sub-linearly, flat linearly.  A
    linear algorithm's per-doubling increment doubles with N; a
    logarithmic one's stays roughly constant.  Measured flat ratios are
    ~6-7x, NIC ~1.5-1.7x; the thresholds leave generous margin.  And
    recursive doubling beats the flat reduce+bcast well before 32 nodes
    (every rank stays busy; log rounds).
    """
    def xs(name, algo):
        return [series[name][algo][n] for n in NODES]

    out = {f"{name}/{algo}: every latency > 0":
           all(x > 0 for x in xs(name, algo))
           for name in COLLECTIVES for algo in ALGOS}
    for name in ("barrier", "allreduce"):
        flat_inc = _increments(xs(name, "flat"))
        nic_inc = _increments(xs(name, "nic"))
        out.update({
            f"{name}: flat last increment > 3 x first (linear)":
                flat_inc[-1] > 3.0 * flat_inc[0],
            f"{name}: nic last increment < 3 x first (sub-linear)":
                nic_inc[-1] < 3.0 * nic_inc[0],
            f"{name}: nic last increment < flat last increment":
                nic_inc[-1] < flat_inc[-1],
        })
    out["allreduce: tree < flat at 32 nodes"] = (
        series["allreduce"]["tree"][32] < series["allreduce"]["flat"][32])
    return out


def _flags(parser):
    parser.add_argument("--repeats", type=int, default=2,
                        help="back-to-back calls per point (default 2)")


def run(args):
    specs = [(name, n, algo, args.repeats)
             for name in COLLECTIVES for algo in ALGOS for n in NODES]
    points = run_sweep(collective_point, specs, jobs=args.jobs)

    series = {}
    for p in points:
        series.setdefault(p["collective"], {}).setdefault(
            p["algo"], {})[p["n_nodes"]] = p["latency_ns"]
    rows = [[name, algo] + [series[name][algo][n] / 1000.0 for n in NODES]
            for name in series for algo in series[name]]
    print_table("collective scaling (us)", HEADER, rows)
    path = write_record(args.json, "collectives",
                        {"repeats": args.repeats, "nodes": NODES,
                         "unit": "ns"},
                        {"series": series}, {})
    print(f"record: {path}")
    return check_claims(claims(series))


BENCH = {
    "summary": "Collective latency scaling: flat vs tree vs NIC",
    "flags": _flags,
    "run": run,
}
