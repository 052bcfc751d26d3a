"""Experiment X-shm — NUMA vs S-COMA remote access characteristics.

The paper builds both because their trade-off is the point: NUMA pays a
firmware round-trip on *every* remote access; S-COMA pays a coherence
miss once and then hits local DRAM ("a region of DRAM used as a level 3
cache").  Expected shape: S-COMA cold miss ~ NUMA read; S-COMA warm hit
orders of magnitude cheaper; NUMA flat regardless of reuse.
"""

from benchmarks.conftest import record
from repro.bench import fresh_machine
from repro.shm import NumaSpace, ScomaRegion

HEADER = ["mechanism", "access", "latency_ns"]


def _numa_read_latency(repeat):
    machine = fresh_machine(2)
    numa = NumaSpace(machine)
    out = {}

    def prog(api):
        yield from numa.write(api, 1, 0x100, b"x" * 8)
        t0 = api.now
        for _ in range(repeat):
            yield from numa.read(api, 1, 0x100, 8)
        out["ns"] = (api.now - t0) / repeat

    machine.run_until(machine.spawn(0, prog), limit=1e10)
    return out["ns"]


def _scoma_latencies():
    machine = fresh_machine(2)
    region = ScomaRegion(machine, n_lines=64)
    region.init_data(0, bytes(32))
    out = {}

    def prog(api):
        t0 = api.now
        yield from api.load(region.addr(0), 8)  # cold: remote fetch
        out["cold"] = api.now - t0
        t0 = api.now
        for _ in range(20):
            yield from api.load(region.addr(0), 8)  # warm: local (L2!)
        out["warm"] = (api.now - t0) / 20

    machine.run_until(machine.spawn(1, prog), limit=1e10)
    return out


def test_numa_remote_read(benchmark):
    latency = benchmark.pedantic(_numa_read_latency, args=(10,), rounds=1,
                                 iterations=1)
    record("Shared-memory access latency", HEADER,
           ["NUMA", "remote read (every access)", latency])
    assert latency > 1_000  # always a firmware round-trip


def test_scoma_cold_and_warm(benchmark):
    out = benchmark.pedantic(_scoma_latencies, rounds=1, iterations=1)
    record("Shared-memory access latency", HEADER,
           ["S-COMA", "cold miss (protocol fill)", out["cold"]])
    record("Shared-memory access latency", HEADER,
           ["S-COMA", "warm hit (local L3)", out["warm"]])
    assert out["warm"] < out["cold"] / 20


def test_scoma_amortizes_vs_numa(benchmark):
    """Ten reads of one remote location: S-COMA pays once, NUMA pays ten
    times."""

    def run():
        numa_total = _numa_read_latency(10) * 10
        machine = fresh_machine(2)
        region = ScomaRegion(machine, n_lines=64)
        region.init_data(0, bytes(32))
        out = {}

        def prog(api):
            t0 = api.now
            for _ in range(10):
                yield from api.load(region.addr(0), 8)
            out["total"] = api.now - t0

        machine.run_until(machine.spawn(1, prog), limit=1e10)
        return numa_total, out["total"]

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

import os

SWEEP_HEADER = ["pattern", "nodes", "ns/access"]
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _sweep_config(nodes, args):
    import repro

    cfg = repro.default_config(n_nodes=nodes)
    if args.sanitize:
        cfg.sanitize = args.sanitize
    return cfg


def _pattern_sweep(args):
    """ns-per-access for each sharing pattern at each node count — the
    four curves of the X-shm figure."""
    import repro
    from repro.shm.workloads import SHARING_PATTERNS

    curves = {}
    for pattern in SHARING_PATTERNS:
        points = curves[pattern] = []
        for nodes in args.nodes:
            run = repro.run(
                repro.scenario("shm_patterns", pattern=pattern,
                               rounds=args.rounds),
                config=_sweep_config(nodes, args))
            r = run.results[0]
            points.append({"nodes": nodes,
                           "ns_per_access": r["ns_per_access"]})
    return curves


def _workload_checks(args):
    """The two real shared-memory workloads at the sweep's largest
    machine: correctness booleans, not timing."""
    import repro

    nodes = max(args.nodes)
    results = {}
    run = repro.run(
        repro.scenario("shm_graph", n_vertices=6 * nodes),
        config=_sweep_config(nodes, args))
    g = run.results[0]
    results["graph"] = {"nodes": nodes, "levels": g["levels"],
                        "ok": bool(g["bfs_ok"])}
    run = repro.run(
        repro.scenario("shm_hash", keys_per_rank=2,
                       n_buckets=4 * nodes, stripes=8),
        config=_sweep_config(nodes, args))
    h = run.results[0]
    results["hash"] = {
        "nodes": nodes,
        "ok": bool(h["inserted"] and h["found"]
                   and all(h["inserted"].values())
                   and all(h["found"].values())),
    }
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
    parser.add_argument("--out-dir", default=RESULTS_DIR,
                        help="artifact directory (default benchmarks/results)")


def run(args):
    from repro.bench import print_table
    from repro.obs import write_metrics

    args.nodes = sorted({int(tok) for tok in
                         str(args.nodes).replace(",", " ").split()})
    document = {
        "benchmark": "shm",
        "schema": "startv.bench_shm",
        "schema_version": 1,
        "nodes": args.nodes,
        "rounds": args.rounds,
    }
    if args.workload in ("patterns", "all"):
        curves = _pattern_sweep(args)
        document["patterns"] = curves
        rows = [[pattern, point["nodes"],
                 round(point["ns_per_access"], 1)]
                for pattern, points in curves.items() for point in points]
        print_table("X-shm: sharing-pattern sweep (ns per access)",
                    SWEEP_HEADER, rows)
    if args.workload in ("workloads", "all"):
        checks = document["workloads"] = _workload_checks(args)
        print_table("X-shm: shared-memory workloads",
                    ["workload", "nodes", "ok"],
                    [[name, c["nodes"], c["ok"]]
                     for name, c in checks.items()])
        if not all(c["ok"] for c in checks.values()):
            return 1
    path = write_metrics(
        args.json or os.path.join(args.out_dir, "BENCH_shm.json"), document)
    print(f"metrics: {path}")
    return 0


BENCH = {
    "summary": "X-shm: sharing-pattern sweep + shared-memory workloads "
               "over the S-COMA directory protocol",
    "flags": _shm_flags,
    "run": run,
}
