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

Results also land in ``benchmarks/results/collectives.json`` via
:func:`repro.bench.emit_json` for plotting.

Also runnable directly, fanning the grid out over processes with
byte-identical output (every point is an independent seeded machine)::

    python -m repro.bench collectives --jobs 4
"""

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_ROOT, os.path.join(_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import pytest

from benchmarks.conftest import record
from repro.bench import (
    collective_latency,
    collective_metrics_sweep,
    emit_json,
    print_table,
)

HEADER = ["collective", "algo"] + [f"{n} nodes (us)" for n in (2, 4, 8, 16, 32)]
NODES = [2, 4, 8, 16, 32]
ALGOS = ["flat", "tree", "nic"]

_results = {}


def _sweep(name, algo):
    xs = [collective_latency(name, n, algo, repeats=2) for n in NODES]
    _results.setdefault(name, {})[algo] = dict(zip(NODES, xs))
    record("collective scaling", HEADER,
           [name, algo] + [x / 1000.0 for x in xs])
    return xs


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("name", ["barrier", "bcast", "allreduce"])
def test_collective_sweep(benchmark, name, algo):
    xs = benchmark.pedantic(_sweep, args=(name, algo), rounds=1,
                            iterations=1)
    assert all(x > 0 for x in xs)


def _increments(xs):
    return [b - a for a, b in zip(xs, xs[1:])]


@pytest.mark.parametrize("name", ["barrier", "allreduce"])
def test_nic_sublinear_flat_linear(benchmark, name):
    """The acceptance criterion: NIC grows sub-linearly, flat linearly.

    A linear algorithm's per-doubling increment doubles with N; a
    logarithmic one's stays roughly constant.  Measured flat ratios are
    ~6-7x, NIC ~1.5-1.7x; the thresholds leave generous margin.
    """

    def run():
        return (_sweep(name, "flat"), _sweep(name, "nic"))

    flat, nic = benchmark.pedantic(run, rounds=1, iterations=1)
    flat_inc, nic_inc = _increments(flat), _increments(nic)
    assert flat_inc[-1] > 3.0 * flat_inc[0], (
        f"flat {name} no longer grows linearly: increments {flat_inc}")
    assert nic_inc[-1] < 3.0 * nic_inc[0], (
        f"nic {name} no longer grows logarithmically: increments {nic_inc}")
    # and the NIC increment at the largest doubling is well below flat's
    assert nic_inc[-1] < flat_inc[-1]


def test_tree_allreduce_beats_flat(benchmark):
    """Recursive doubling beats the flat reduce+bcast well before 32
    nodes (every rank stays busy; log rounds)."""

    def run():
        return (_sweep("allreduce", "flat")[-1],
                _sweep("allreduce", "tree")[-1])

    flat32, tree32 = benchmark.pedantic(run, rounds=1, iterations=1)
    assert tree32 < flat32


@pytest.fixture(scope="module", autouse=True)
def _emit():
    yield
    if _results:
        emit_json(os.path.join(os.path.dirname(__file__), "results",
                               "collectives.json"),
                  {"unit": "ns", "nodes": NODES, "series": _results})


# ----------------------------------------------------------------------
# direct CLI (parallel sweep)
# ----------------------------------------------------------------------

def _flags(parser):
    parser.add_argument("--repeats", type=int, default=2,
                        help="back-to-back calls per point (default 2)")
    parser.add_argument("--out", default=os.path.join(
                            os.path.dirname(os.path.abspath(__file__)),
                            "results", "collectives.json"),
                        help="output JSON path")


def run(args):
    points = collective_metrics_sweep(
        ["barrier", "bcast", "allreduce"], NODES, ALGOS,
        repeats=args.repeats, jobs=args.jobs)

    series = {}
    for p in points:
        series.setdefault(p["collective"], {}).setdefault(
            p["algo"], {})[p["n_nodes"]] = p["latency_ns"]
    rows = [[name, algo] + [series[name][algo][n] / 1000.0 for n in NODES]
            for name in series for algo in series[name]]
    print_table("collective scaling (us)", HEADER, rows)
    path = emit_json(args.json or args.out,
                     {"unit": "ns", "nodes": NODES, "series": series})
    print(f"results: {path}")


BENCH = {
    "summary": "Collective latency scaling: flat vs tree vs NIC vs switch",
    "flags": _flags,
    "run": run,
}
