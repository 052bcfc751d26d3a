"""Experiment X-sync — synchronization latency vs. machine size.

The scalable-SMP question the `repro.sync` subsystem exists to answer:
what does a global synchronization cost as the machine grows, and how
much of that cost can the network absorb?  Two sweeps over a 64–1024
node axis:

* ``barrier`` — one global barrier, three ways: the pure-endpoint
  counting barrier (every arrival is a message to one sP), the NIC
  software tree (``MiniMPI barrier(algo="nic")``), and the in-switch
  combining tree (``algo="switch"`` riding the planned reduction tree).
* ``hotspot`` — a fetch-and-add storm on a single counter cell at two
  contention levels (1/16 of the machine, and every node), endpoint
  vs. in-switch combining.  The in-switch rows also report how many
  requests the fabric folded (``combine_hits``) — the Ultracomputer
  argument, measured.

Per point: completion time, per-operation latency, and (hot-spot) the
serialization ratio against the endpoint row.  Machines are the
default full-memory nodes with radix-8 switches, so the 1024-node fat
tree stays 5 levels.  Everything is seeded: the sweep is byte-identical
for any ``--jobs``.

Also runnable directly (no pytest) for machine-readable output::

    python -m repro.bench sync --nodes 64 --sanitize combine
    python -m repro.bench sync --jobs 6 --emit-metrics

The summary artifact always lands in ``BENCH_sync.json`` at the repo
root; the CLI exits nonzero if in-switch combining fails to beat the
pure-endpoint implementation at any size >= 256 nodes, which is what
the CI sync-smoke job checks.
"""

import os
import sys

# imported with only benchmarks/ on sys.path (e.g. a bare pytest run);
# make the repo root and src/ importable
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_ROOT, os.path.join(_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.bench import emit_json, fresh_machine, print_table, run_sweep
from repro.bench.harness import strip_wall
from repro.common.config import NetworkConfig
from repro.lib.mpi import MiniMPI
from repro.obs.snapshot import metrics_snapshot

BARRIER_HEADER = ["nodes", "algo", "rounds", "total_us", "per_barrier_us"]
HOTSPOT_HEADER = ["nodes", "contenders", "transport", "ops", "total_us",
                  "per_op_ns", "combine_hits"]

#: where the CLI drops the optional per-point metrics snapshots.
RESULTS_DIR = os.path.join(_ROOT, "benchmarks", "results")
#: the always-written summary artifact (acceptance checks read this).
SUMMARY_PATH = os.path.join(_ROOT, "BENCH_sync.json")

#: the machine-size axis (fat-tree leaves; radix 8 keeps 1024 at 5 levels).
NODE_AXIS = (64, 256, 1024)

BARRIER_ROUNDS = 3
HOTSPOT_ROUNDS = 2
#: hot-spot contention levels as a fraction of the machine.
CONTENTION = ((1, 16), (1, 1))


def sync_machine(n_nodes, **overrides):
    """A machine sized for sync sweeps: radix-8 switches."""
    overrides.setdefault("network", NetworkConfig(radix=8))
    return fresh_machine(n_nodes, **overrides)


def _combine_hits(machine):
    rep = machine.stats.report()
    return int(sum(v for k, v in rep.items()
                   if k.endswith(".combine_hits")))


def barrier_point(spec):
    """One barrier point: ``(n_nodes, algo)`` -> result row.

    ``endpoint`` runs the group barrier over the sP-served fallback
    transport (one home sP counts arrivals); ``nic`` and ``switch`` go
    through MiniMPI so the row measures the same call an application
    would make.
    """
    n, algo = spec
    machine = sync_machine(n)
    if algo == "endpoint":
        grp = machine.sync_fabric().group(range(n), mode="endpoint")

        def prog(api, rank):
            for r in range(BARRIER_ROUNDS):
                yield from api.compute(50 * ((rank + r) % 7))
                yield from grp.barrier(api, rank)
    else:
        mpi = MiniMPI(machine, algo=algo)

        def prog(api, rank):
            comm = mpi.rank(rank)
            for r in range(BARRIER_ROUNDS):
                yield from api.compute(50 * ((rank + r) % 7))
                yield from comm.barrier(api)

    t0 = machine.now
    procs = [machine.spawn(i, prog, i) for i in range(n)]
    machine.run_all(procs, limit=1e11)
    total_ns = machine.now - t0
    return {
        "workload": "barrier",
        "nodes": n,
        "algo": algo,
        "rounds": BARRIER_ROUNDS,
        "total_ns": total_ns,
        "per_barrier_ns": total_ns / BARRIER_ROUNDS,
        "combine_hits": _combine_hits(machine),
        "metrics": strip_wall(metrics_snapshot(machine,
                                               include_config=False)),
    }


def hotspot_point(spec):
    """One hot-spot point: ``(n_nodes, num, den, transport)`` -> row.

    ``num/den`` of the machine's nodes each issue ``HOTSPOT_ROUNDS``
    fetch-and-adds on the same counter cell; the row reports the wall
    from first request to last reply.  The final counter value is
    asserted, so a dropped or double-applied combine fails the sweep.
    """
    n, num, den, transport = spec
    contenders = max(2, n * num // den)
    machine = sync_machine(n)
    grp = machine.sync_fabric().group(range(n), mode=transport)
    ctr = grp.counter(cell=0)

    def prog(api, rank):
        for _ in range(HOTSPOT_ROUNDS):
            yield from ctr.add(api, rank, 1)
        return 1

    def check(api):
        return (yield from ctr.read(api, 0))

    t0 = machine.now
    procs = [machine.spawn(i, prog, i) for i in range(contenders)]
    machine.run_all(procs, limit=1e11)
    total_ns = machine.now - t0
    final = machine.run_until(machine.spawn(0, check), limit=1e11)
    ops = contenders * HOTSPOT_ROUNDS
    assert final == ops, f"hot spot lost updates: {final} != {ops}"
    return {
        "workload": "hotspot",
        "nodes": n,
        "contenders": contenders,
        "transport": transport,
        "ops": ops,
        "total_ns": total_ns,
        "per_op_ns": total_ns / ops,
        "combine_hits": _combine_hits(machine),
        "metrics": strip_wall(metrics_snapshot(machine,
                                               include_config=False)),
    }


def sync_sweep(jobs=1, node_axis=NODE_AXIS):
    """The full grid, in point order (byte-identical for any ``jobs``)."""
    barrier_specs = [(n, algo) for n in node_axis
                     for algo in ("endpoint", "nic", "switch")]
    hotspot_specs = [(n, num, den, transport) for n in node_axis
                     for (num, den) in CONTENTION
                     for transport in ("endpoint", "switch")]
    points = run_sweep(barrier_point, barrier_specs, jobs=jobs)
    points += run_sweep(hotspot_point, hotspot_specs, jobs=jobs)
    return points


def check_switch_wins(points, floor=256):
    """The acceptance claim: in-switch beats endpoint at >= ``floor``.

    Returns the list of violations (empty = the claim holds) comparing
    per-barrier latency and hot-spot completion time between the switch
    and endpoint rows of every size >= ``floor``.
    """
    bad = []
    barriers = {(p["nodes"], p["algo"]): p for p in points
                if p["workload"] == "barrier"}
    for (n, algo), p in barriers.items():
        if algo != "switch" or n < floor:
            continue
        rival = barriers[(n, "endpoint")]
        if p["per_barrier_ns"] >= rival["per_barrier_ns"]:
            bad.append(f"barrier at {n}: switch {p['per_barrier_ns']:.0f}ns "
                       f">= endpoint {rival['per_barrier_ns']:.0f}ns")
    spots = {(p["nodes"], p["contenders"], p["transport"]): p
             for p in points if p["workload"] == "hotspot"}
    for (n, c, transport), p in spots.items():
        if transport != "switch" or n < floor:
            continue
        rival = spots[(n, c, "endpoint")]
        if p["total_ns"] >= rival["total_ns"]:
            bad.append(f"hotspot at {n} ({c} contenders): switch "
                       f"{p['total_ns']:.0f}ns >= endpoint "
                       f"{rival['total_ns']:.0f}ns")
    return bad


def _flags(parser):
    parser.add_argument("--nodes", type=int, nargs="+", default=None,
                        metavar="N",
                        help="machine sizes to sweep (default: 64 256 1024)")
    parser.add_argument("--out-dir", default=RESULTS_DIR,
                        help="artifact directory (default benchmarks/results)")
    parser.add_argument("--summary", default=SUMMARY_PATH,
                        help="summary artifact path (default BENCH_sync.json "
                             "at the repo root)")


def run(args):
    if args.sanitize:
        from repro.analysis.sanitize import resolve_sanitizers

        resolve_sanitizers(args.sanitize, env="")  # fail fast on typos
        # the environment propagates to sweep pool workers, so every
        # point's machine comes up with the checkers installed
        os.environ["REPRO_SANITIZE"] = args.sanitize

    node_axis = tuple(args.nodes) if args.nodes else NODE_AXIS
    points = sync_sweep(jobs=args.jobs, node_axis=node_axis)

    barrier_rows = [[p["nodes"], p["algo"], p["rounds"],
                     f"{p['total_ns'] / 1e3:.1f}",
                     f"{p['per_barrier_ns'] / 1e3:.1f}"]
                    for p in points if p["workload"] == "barrier"]
    print_table("X-sync: global barrier latency", BARRIER_HEADER,
                barrier_rows)
    hotspot_rows = [[p["nodes"], p["contenders"], p["transport"], p["ops"],
                     f"{p['total_ns'] / 1e3:.1f}", f"{p['per_op_ns']:.0f}",
                     p["combine_hits"]]
                    for p in points if p["workload"] == "hotspot"]
    print_table("X-sync: fetch-and-add hot spot", HOTSPOT_HEADER,
                hotspot_rows)

    violations = check_switch_wins(points,
                                   floor=min(256, max(node_axis)))
    summary = {
        "benchmark": "sync",
        "schema": "startv.metrics",
        "schema_version": 1,
        "node_axis": list(node_axis),
        "switch_beats_endpoint": not violations,
        "violations": violations,
        "points": [{k: v for k, v in p.items() if k != "metrics"}
                   for p in points],
    }
    path = emit_json(args.json or args.summary, summary)
    print(f"summary: {path}")

    if args.emit_metrics:
        document = dict(summary, points=points)
        mpath = emit_json(os.path.join(args.out_dir, "sync_metrics.json"),
                          document)
        print(f"metrics: {mpath}")

    for v in violations:
        print(f"FAIL: {v}", file=sys.stderr)
    return 1 if violations else 0


BENCH = {
    "summary": "Scalable synchronization: barriers and hot spots at scale",
    "flags": _flags,
    "run": run,
}
