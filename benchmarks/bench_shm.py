"""Experiment X-shm — NUMA vs S-COMA remote access characteristics.

The paper builds both because their trade-off is the point: NUMA pays a
firmware round-trip on *every* remote access; S-COMA pays a coherence
miss once and then hits local DRAM ("a region of DRAM used as a level 3
cache").  Expected shape: S-COMA cold miss ~ NUMA read; S-COMA warm hit
orders of magnitude cheaper; NUMA flat regardless of reuse.

The sweep CLI writes its record to ``benchmarks/results/shm.json``::

    python -m repro.bench shm --workload all --json BENCH_shm.json
"""

import repro
from benchmarks.conftest import record
from repro.bench import fresh_machine, print_table, write_record
from repro.scenarios import measure
from repro.shm import ScomaRegion

HEADER = ["mechanism", "access", "latency_ns"]


def test_numa_remote_read(benchmark):
    latency = benchmark.pedantic(measure, args=("numa_read",), rounds=1,
                                 iterations=1)
    record("Shared-memory access latency", HEADER,
           ["NUMA", "remote read (every access)", latency])
    assert latency > 1_000  # always a firmware round-trip


def test_scoma_cold_and_warm(benchmark):
    out = benchmark.pedantic(measure, args=("scoma_read",), rounds=1,
                             iterations=1)
    record("Shared-memory access latency", HEADER,
           ["S-COMA", "cold miss (protocol fill)", out["cold"]])
    record("Shared-memory access latency", HEADER,
           ["S-COMA", "warm hit (local L3)", out["warm"]])
    assert out["warm"] < out["cold"] / 20


def test_scoma_amortizes_vs_numa(benchmark):
    """Ten reads of one remote location: S-COMA pays once, NUMA pays ten
    times."""

    def run():
        scoma = measure("scoma_read", warm_reads=9)
        return measure("numa_read") * 10, scoma["cold"] + 9 * scoma["warm"]

    numa_total, scoma_total = benchmark.pedantic(run, rounds=1, iterations=1)
    record("Shared-memory access latency", HEADER,
           ["NUMA", "10 reads of one line (total)", numa_total])
    record("Shared-memory access latency", HEADER,
           ["S-COMA", "10 reads of one line (total)", scoma_total])
    assert scoma_total < numa_total / 2


def test_scoma_write_ownership_cost(benchmark):
    """First write takes ownership (recall/invalidate); later writes are
    local."""

    def run():
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

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    record("Shared-memory access latency", HEADER,
           ["S-COMA", "first write (ownership)", out["first"]])
    record("Shared-memory access latency", HEADER,
           ["S-COMA", "owned write", out["rest"]])
    assert out["rest"] < out["first"] / 10


def _scoma_miss_under_load(background_dma: bool):
    """S-COMA cold-miss latency, optionally under a saturating DMA.

    The protocol rides the HIGH network priority, so bulk data on the
    LOW priority should inflate the miss only modestly — the reason the
    paper "require[s] that the network supports at least two priority
    levels"."""
    from repro.mp.basic import BasicPort
    from repro.mp.dma import dma_write

    machine = fresh_machine(2)
    region = ScomaRegion(machine, n_lines=64)
    region.init_data(0, bytes(range(32)))
    out = {}

    if background_dma:
        machine.node(0).dram.poke(0x10000, bytes(32768))
        port = BasicPort(machine.node(0), 1, 1)

        def bulk(api):
            # continuous low-priority bulk traffic 0 -> 1
            for _ in range(4):
                yield from dma_write(api, port, 1, 0x10000, 0x28000, 8192)
                yield from api.sleep(1_000)

        machine.spawn(0, bulk)
        machine.run(until=machine.now + 30_000)  # let the bulk stream start

    def prog(api):
        t0 = api.now
        yield from api.load(region.addr(0), 8)
        out["cold"] = api.now - t0

    machine.run_until(machine.spawn(1, prog), limit=1e10)
    return out["cold"]


def test_priority_isolates_protocol_from_bulk(benchmark):
    def run():
        return (_scoma_miss_under_load(False),
                _scoma_miss_under_load(True))

    quiet, loaded = benchmark.pedantic(run, rounds=1, iterations=1)
    record("Shared-memory access latency", HEADER,
           ["S-COMA", "cold miss, quiet network", quiet])
    record("Shared-memory access latency", HEADER,
           ["S-COMA", "cold miss, under bulk DMA", loaded])
    # the high-priority protocol path keeps the miss within ~3x even
    # while low-priority bulk saturates the same links (the home's bus
    # and command stream still share, so some inflation is real)
    assert loaded < 4.0 * quiet


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
    sim = {}
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
    ok = all(c["ok"] for c in sim.get("workloads", {}).values())
    return 0 if ok else 1


BENCH = {
    "summary": "X-shm: sharing-pattern sweep + shared-memory workloads "
               "over the S-COMA directory protocol",
    "flags": _shm_flags,
    "run": run,
}
