"""Experiment X-traffic — serving applications under open-loop load.

The platform benches measure mechanisms; this one measures what an
operator sees: offered load vs **goodput** (the within-SLO fraction of
offered requests) and the p50/p99/p99.9 latency tail, for the three
:mod:`repro.traffic` applications at cluster scale:

* **KV store** — Zipf-skewed open-loop load swept across an offered
  rate axis; the curve must show the SLO knee (goodput ~1 at low load,
  falling once the hot shards saturate);
* **parameter server vs allreduce** — one synchronous training step
  through the incast-prone central server and through the collective
  algos;
* **microservice fan-out** — depth-2 request trees, tail-at-scale.

Determinism is part of the contract and gated here: the mid-load KV
point is re-run through a 4-wide process pool, and its wall-stripped
snapshot must be byte-identical to the inline run.

The document lands in ``BENCH_traffic.json`` at the repo root::

    python -m repro.bench traffic                 # 64 nodes
    python -m repro.bench traffic --nodes 128 --jobs 4
    python -m repro.bench traffic --rates 20000,200000
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_ROOT, os.path.join(_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from repro.bench import comparable, emit_json, print_table, run_sweep
from repro.shard import run_scenario, scenario

DEFAULT_OUT = os.path.join(_ROOT, "BENCH_traffic.json")

#: offered-load axis (requests/second per node) for the KV sweep; spans
#: the comfortable region through well past the 64-node SLO knee.
DEFAULT_RATES = (20_000.0, 50_000.0, 100_000.0, 200_000.0, 400_000.0)

#: the training rows: (mode, algo).
TRAIN_ROWS = (("ps", "-"), ("allreduce", "flat"), ("allreduce", "tree"),
              ("allreduce", "nic"), ("allreduce", "switch"))

KV_HEADER = ["rate/node", "offered", "goodput", "p50_ns", "p99_ns",
             "p999_ns", "max_ns"]
APP_HEADER = ["app", "variant", "offered", "goodput", "p50_ns", "p99_ns",
              "p999_ns"]


def traffic_point(spec):
    """One sweep point: build the scenario from a picklable spec, run it,
    return the traffic rollup plus the full snapshot."""
    name, kwargs, n_nodes, seed, sanitize = spec
    config = None
    if sanitize:
        import repro

        config = repro.default_config(n_nodes=n_nodes)
        config.seed = seed
        config.sanitize = sanitize
    t0 = time.monotonic()
    run = run_scenario(scenario(name, **kwargs), config=config,
                       n_nodes=n_nodes, seed=seed)
    wall = time.monotonic() - t0
    return {
        "scenario": name,
        "params": kwargs,
        "n_nodes": n_nodes,
        "traffic": run.snapshot.get("traffic", {}),
        "wall_seconds": wall,
        "snapshot": run.snapshot,
    }


def _kv_spec(rate, args):
    return ("traffic_kv",
            {"per_node": args.per_node, "rate_rps": rate,
             "transport": args.transport, "reliable": args.reliable},
            args.nodes, args.seed, args.sanitize)


def _app_row(app, variant, section):
    t = section.get(app)
    if not t:
        return [app, variant, 0, 0.0, "-", "-", "-"]
    lat = t["latency_ns"] or {}
    return [app, variant, t["offered"], t["goodput"],
            round(lat.get("p50", 0.0)), round(lat.get("p99", 0.0)),
            round(lat.get("p999", 0.0))]


def kv_sweep(args):
    """Offered-load vs goodput/tail for the KV store (jobs-parallel)."""
    specs = [_kv_spec(rate, args) for rate in args.rates]
    points = run_sweep(traffic_point, specs, jobs=args.jobs)
    for rate, p in zip(args.rates, points):
        p["rate_rps"] = rate
    return points


def parity_checks(args, baseline_point):
    """The determinism gate: the mid-load KV point must be byte-identical
    (wall-stripped) when computed through a 4-wide process pool."""
    rate = baseline_point["rate_rps"]
    base = comparable(dict(baseline_point["snapshot"]))
    pooled = run_sweep(traffic_point, [_kv_spec(rate, args)], jobs=4)[0]
    return {
        "rate_rps": rate,
        "jobs4_identical": comparable(pooled["snapshot"]) == base,
    }


def train_points(args):
    """The training rows."""
    points = []
    for mode, algo in TRAIN_ROWS:
        kwargs = {"mode": mode, "steps": args.steps,
                  "n_blocks": args.blocks}
        if mode == "allreduce":
            kwargs["algo"] = algo
        spec = ("traffic_train", kwargs, args.nodes, args.seed,
                args.sanitize)
        p = traffic_point(spec)
        p["variant"] = f"{mode}/{algo}" if mode == "allreduce" else mode
        points.append(p)
    return points


def usvc_point(args):
    spec = ("traffic_usvc",
            {"per_node": args.per_node, "depth": args.depth,
             "fanout": args.fanout},
            args.nodes, args.seed, args.sanitize)
    return traffic_point(spec)


def _flags(parser):
    parser.add_argument("--nodes", type=int, default=64,
                        help="machine size (default 64)")
    parser.add_argument("--rates", default=None,
                        help="comma-separated KV offered-load axis in "
                             "req/s per node (default "
                             "20k,50k,100k,200k,400k)")
    parser.add_argument("--per-node", type=int, default=8,
                        help="requests per node per point (default 8)")
    parser.add_argument("--transport", default="basic",
                        choices=("basic", "tagon", "dma"),
                        help="KV PUT transport (default basic)")
    parser.add_argument("--reliable", action="store_true",
                        help="send KV requests over reliable delivery")
    parser.add_argument("--steps", type=int, default=2,
                        help="training steps per run (default 2)")
    parser.add_argument("--blocks", type=int, default=2,
                        help="parameter blocks per step (default 2)")
    parser.add_argument("--depth", type=int, default=2,
                        help="microservice fan-out depth (default 2)")
    parser.add_argument("--fanout", type=int, default=2,
                        help="children per microservice stage (default 2)")
    parser.add_argument("--min-goodput", type=float, default=0.99,
                        help="low-load KV goodput gate (default 0.99)")
    parser.add_argument("--skip-parity", action="store_true",
                        help="skip the jobs determinism re-run")
    parser.add_argument("--trace-in", default=None, metavar="FILE",
                        help="replay a recorded KV trace (JSON lines from "
                             "repro.traffic.dump_trace) instead of sweeping "
                             "the offered-load axis")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="output JSON path (default BENCH_traffic.json "
                             "at the repo root)")


def replay_trace_in(args):
    """``--trace-in``: run one KV point that replays a recorded trace
    (JSON lines from :func:`repro.traffic.dump_trace`) instead of
    sweeping the offered-load axis.  The same request schedule, byte for
    byte, drives the machine — the row a bug report or an explorer
    witness pins down is reproducible by anyone holding the file."""
    from repro.traffic import load_trace

    with open(args.trace_in, "r", encoding="utf-8") as fh:
        records = load_trace(fh.read())
    spec = ("traffic_kv",
            {"transport": args.transport, "reliable": args.reliable,
             "trace": records},
            args.nodes, args.seed, args.sanitize)
    point = traffic_point(spec)
    t = point["traffic"].get("kv", {})
    lat = t.get("latency_ns") or {}
    print_table(
        f"X-traffic: replay of {os.path.basename(args.trace_in)} "
        f"({len(records)} requests) @ {args.nodes} nodes",
        KV_HEADER[1:],
        [[t.get("offered", 0), t.get("goodput", 0.0),
          round(lat.get("p50", 0.0)), round(lat.get("p99", 0.0)),
          round(lat.get("p999", 0.0)), round(lat.get("max", 0.0))]])
    document = {
        "benchmark": "traffic",
        "schema": "startv.metrics",
        "schema_version": 1,
        "n_nodes": args.nodes,
        "transport": args.transport,
        "trace_in": os.path.basename(args.trace_in),
        "trace_requests": len(records),
        "replay_point": {k: v for k, v in point.items() if k != "snapshot"},
    }
    path = emit_json(args.json or args.out, document)
    print(f"results: {path}")
    if t.get("completed") != t.get("offered") or not t.get("offered"):
        print(f"FAIL: replay completed {t.get('completed')} of "
              f"{t.get('offered')} offered", file=sys.stderr)
        return 1
    return 0


def run(args):
    if args.trace_in:
        return replay_trace_in(args)
    args.rates = (DEFAULT_RATES if not args.rates else
                  tuple(sorted(float(tok) for tok in
                               str(args.rates).replace(",", " ").split())))

    kv_points = kv_sweep(args)
    kv_rows = []
    for p in kv_points:
        t = p["traffic"].get("kv", {})
        lat = t.get("latency_ns") or {}
        kv_rows.append([round(p["rate_rps"]), t.get("offered", 0),
                        t.get("goodput", 0.0), round(lat.get("p50", 0.0)),
                        round(lat.get("p99", 0.0)),
                        round(lat.get("p999", 0.0)),
                        round(lat.get("max", 0.0))])
    print_table(
        f"X-traffic: KV offered load vs goodput @ {args.nodes} nodes "
        f"({args.transport}{'/reliable' if args.reliable else ''})",
        KV_HEADER, kv_rows)

    trains = train_points(args)
    usvc = usvc_point(args)
    app_rows = [_app_row("ps", p["variant"], p["traffic"]) for p in trains]
    app_rows.append(_app_row("usvc", f"d{args.depth}xf{args.fanout}",
                             usvc["traffic"]))
    print_table(f"X-traffic: training + fan-out @ {args.nodes} nodes",
                APP_HEADER, app_rows)

    mid = kv_points[len(kv_points) // 2]
    parity = None
    if not args.skip_parity:
        parity = parity_checks(args, mid)
        print(f"parity @ {round(parity['rate_rps'])} req/s/node: "
              f"jobs4={parity['jobs4_identical']}")

    low, high = kv_points[0], kv_points[-1]
    low_goodput = low["traffic"].get("kv", {}).get("goodput", 0.0)
    high_goodput = high["traffic"].get("kv", {}).get("goodput", 1.0)

    document = {
        "benchmark": "traffic",
        "schema": "startv.metrics",
        "schema_version": 1,
        "n_nodes": args.nodes,
        "transport": args.transport,
        "kv_points": [{k: v for k, v in p.items() if k != "snapshot"}
                      for p in kv_points],
        "train_points": [{k: v for k, v in p.items() if k != "snapshot"}
                         for p in trains],
        "usvc_point": {k: v for k, v in usvc.items() if k != "snapshot"},
        "parity": parity,
        "low_load_goodput": low_goodput,
        "high_load_goodput": high_goodput,
        "knee_visible": high_goodput < low_goodput,
    }
    path = emit_json(args.json or args.out, document)
    print(f"results: {path}")

    failed = False
    if low_goodput <= args.min_goodput:
        print(f"FAIL: low-load KV goodput {low_goodput:.3f} <= "
              f"{args.min_goodput}", file=sys.stderr)
        failed = True
    if not document["knee_visible"]:
        print(f"FAIL: no SLO knee — goodput {high_goodput:.3f} at "
              f"{round(high['rate_rps'])} req/s/node is not below "
              f"{low_goodput:.3f} at {round(low['rate_rps'])}",
              file=sys.stderr)
        failed = True
    if parity is not None and not parity["jobs4_identical"]:
        print(f"FAIL: traffic metrics not deterministic: {parity}",
              file=sys.stderr)
        failed = True
    for p in trains + [usvc]:
        app = "usvc" if p["scenario"] == "traffic_usvc" else "ps"
        t = p["traffic"].get(app, {})
        if t.get("offered", 0) and t["completed"] != t["offered"]:
            print(f"FAIL: {p['scenario']} completed {t['completed']} of "
                  f"{t['offered']} offered", file=sys.stderr)
            failed = True
    return 1 if failed else 0


BENCH = {
    "summary": "X-traffic: KV / parameter-server / microservice serving "
               "load with goodput + tail-latency SLO curves",
    "flags": _flags,
    "run": run,
}
