"""Experiment X-shm — NUMA vs S-COMA remote access characteristics.

The paper builds both because their trade-off is the point: NUMA pays a
firmware round-trip on *every* remote access; S-COMA pays a coherence
miss once and then hits local DRAM ("a region of DRAM used as a level 3
cache").  Expected shape: S-COMA cold miss ~ NUMA read; S-COMA warm hit
orders of magnitude cheaper; NUMA flat regardless of reuse.

Every run measures those access latencies (and the cold miss under
bulk low-priority DMA) and checks the claims; ``--workload`` adds the
sharing-pattern sweep and/or the two shared-memory workloads at cluster
scale.  The record lands in ``benchmarks/results/shm.json``, and the CLI
exits 1 when a claim or a workload check fails::

    python -m repro.bench shm --workload all --json BENCH_shm.json
"""

import repro
from repro.bench import check_claims, fresh_machine, print_table, write_record
from repro.scenarios import measure
from repro.shm import ScomaRegion

HEADER = ["mechanism", "access", "latency_ns"]


def _scoma_write_costs():
    """First write takes ownership (recall/invalidate); later writes are
    local."""
    machine = fresh_machine(2)
    region = ScomaRegion(machine, n_lines=64)
    region.init_data(0, bytes(32))
    out = {}

    def prog(api):
        t0 = api.now
        yield from api.store(region.addr(0), b"w" * 8)
        out["first"] = api.now - t0
        t0 = api.now
        for _ in range(10):
            yield from api.store(region.addr(0), b"v" * 8)
        out["rest"] = (api.now - t0) / 10

    machine.run_until(machine.spawn(1, prog), limit=1e10)
    return out


def _latency():
    """The access-latency section: every point once, ``{name: ns}``."""
    numa = measure("numa_read")
    scoma = measure("scoma_read")
    ten = measure("scoma_read", warm_reads=9)
    writes = _scoma_write_costs()
    return {
        "numa_read": numa,
        "scoma_cold": scoma["cold"],
        "scoma_warm": scoma["warm"],
        # ten reads of one remote location: S-COMA pays once, NUMA ten
        # times
        "numa_10_reads": numa * 10,
        "scoma_10_reads": ten["cold"] + 9 * ten["warm"],
        "scoma_first_write": writes["first"],
        "scoma_owned_write": writes["rest"],
        "scoma_cold_under_bulk_dma":
            measure("scoma_read", bulk_dma=True)["cold"],
    }


def _latency_claims(lat):
    return {
        "NUMA remote read > 1000 ns (always a firmware round-trip)":
            lat["numa_read"] > 1_000,
        "S-COMA warm hit < cold miss / 20":
            lat["scoma_warm"] < lat["scoma_cold"] / 20,
        "S-COMA 10 reads < NUMA 10 reads / 2":
            lat["scoma_10_reads"] < lat["numa_10_reads"] / 2,
        "S-COMA owned write < first write / 10":
            lat["scoma_owned_write"] < lat["scoma_first_write"] / 10,
        # the high-priority protocol path keeps the miss within ~3x even
        # while low-priority bulk saturates the same links (the home's
        # bus and command stream still share, so some inflation is real)
        "S-COMA cold miss under bulk DMA < 4 x quiet":
            lat["scoma_cold_under_bulk_dma"] < 4.0 * lat["scoma_cold"],
    }


# ----------------------------------------------------------------------
# the X-shm sweep CLI: sharing-pattern curves at cluster scale
# ----------------------------------------------------------------------

SWEEP_HEADER = ["pattern", "nodes", "ns/access"]


def _pattern_sweep(args):
    """ns-per-access for each sharing pattern at each node count — the
    four curves of the X-shm figure."""
    from repro.shm.workloads import SHARING_PATTERNS

    curves = {}
    for pattern in SHARING_PATTERNS:
        points = curves[pattern] = []
        for nodes in args.nodes:
            run = repro.run(
                repro.scenario("shm_patterns", pattern=pattern,
                               rounds=args.rounds),
                config=repro.default_config(n_nodes=nodes))
            r = run.results[0]
            points.append({"nodes": nodes,
                           "ns_per_access": r["ns_per_access"]})
    return curves


def _workload_checks(args):
    """The two real shared-memory workloads at the sweep's largest
    machine: correctness booleans, not timing."""
    nodes = max(args.nodes)
    results = {}
    graph = repro.scenario("shm_graph", n_vertices=6 * nodes)
    run = repro.run(graph, config=repro.default_config(n_nodes=nodes))
    results["graph"] = {"nodes": nodes, "levels": run.results[0]["levels"],
                        "ok": graph.check(run.results[0]) is None}
    table = repro.scenario("shm_hash", keys_per_rank=2,
                           n_buckets=4 * nodes, stripes=8)
    run = repro.run(table, config=repro.default_config(n_nodes=nodes))
    results["hash"] = {"nodes": nodes,
                       "ok": table.check(run.results[0]) is None}
    return results


def _shm_flags(parser):
    parser.add_argument("--nodes", default="2,4,8,16",
                        help="comma-separated node counts for the sweep "
                             "(default 2,4,8,16)")
    parser.add_argument("--rounds", type=int, default=6,
                        help="rounds per sharing-pattern kernel (default 6)")
    parser.add_argument("--workload", default="patterns",
                        choices=("patterns", "workloads", "all"),
                        help="patterns = the four-curve sweep; workloads = "
                             "graph+hash correctness at the largest node "
                             "count; all = both (default patterns)")


def run(args):
    args.nodes = sorted({int(tok) for tok in
                         str(args.nodes).replace(",", " ").split()})
    lat = _latency()
    print_table("Shared-memory access latency", HEADER, [
        ["NUMA", "remote read (every access)", lat["numa_read"]],
        ["S-COMA", "cold miss (protocol fill)", lat["scoma_cold"]],
        ["S-COMA", "warm hit (local L3)", lat["scoma_warm"]],
        ["NUMA", "10 reads of one line (total)", lat["numa_10_reads"]],
        ["S-COMA", "10 reads of one line (total)", lat["scoma_10_reads"]],
        ["S-COMA", "first write (ownership)", lat["scoma_first_write"]],
        ["S-COMA", "owned write", lat["scoma_owned_write"]],
        ["S-COMA", "cold miss, under bulk DMA",
         lat["scoma_cold_under_bulk_dma"]],
    ])
    sim = {"latency": lat}
    if args.workload in ("patterns", "all"):
        curves = sim["patterns"] = _pattern_sweep(args)
        rows = [[pattern, point["nodes"],
                 round(point["ns_per_access"], 1)]
                for pattern, points in curves.items() for point in points]
        print_table("X-shm: sharing-pattern sweep (ns per access)",
                    SWEEP_HEADER, rows)
    if args.workload in ("workloads", "all"):
        checks = sim["workloads"] = _workload_checks(args)
        print_table("X-shm: shared-memory workloads",
                    ["workload", "nodes", "ok"],
                    [[name, c["nodes"], c["ok"]]
                     for name, c in checks.items()])
    path = write_record(args.json, "shm",
                        {"nodes": args.nodes, "rounds": args.rounds,
                         "workload": args.workload}, sim, {})
    print(f"record: {path}")
    claims = _latency_claims(lat)
    claims.update({f"{name} workload correct at {c['nodes']} nodes": c["ok"]
                   for name, c in sim.get("workloads", {}).items()})
    return check_claims(claims)


BENCH = {
    "summary": "X-shm: sharing-pattern sweep + shared-memory workloads "
               "over the S-COMA directory protocol",
    "flags": _shm_flags,
    "run": run,
}
