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
point is re-run twice through a two-worker process pool, and each
pooled run's wall-stripped snapshot must be byte-identical to the
inline run's.

The record lands in ``benchmarks/results/traffic.json`` (the committed
64-node run is ``BENCH_traffic.json``); each point's wall seconds go to
its ``wall`` block, and ``--emit-metrics`` adds each point's metrics
snapshot to its ``sim``::

    python -m repro.bench traffic --json BENCH_traffic.json   # 64 nodes
    python -m repro.bench traffic --nodes 128 --jobs 4
    python -m repro.bench traffic --rates 20000,200000
"""

import time

from repro.bench import (
    check_claims,
    comparable,
    print_table,
    run_sweep,
    strip_wall,
    write_record,
)
from repro.scenarios import run_scenario, scenario

#: offered-load axis (requests/second per node) for the KV sweep; spans
#: the comfortable region through well past the 64-node SLO knee.
DEFAULT_RATES = (20_000.0, 50_000.0, 100_000.0, 200_000.0, 400_000.0)

#: the training rows: (mode, algo).
TRAIN_ROWS = (("ps", "-"), ("allreduce", "flat"), ("allreduce", "tree"),
              ("allreduce", "nic"), ("allreduce", "switch"))

#: the microservice request tree: depth and children per stage.
USVC_SHAPE = {"depth": 2, "fanout": 2}

#: the low-load KV goodput gate.
MIN_GOODPUT = 0.99

KV_HEADER = ["rate/node", "offered", "goodput", "p50_ns", "p99_ns",
             "p999_ns", "max_ns"]
APP_HEADER = ["app", "variant", "offered", "goodput", "p50_ns", "p99_ns",
              "p999_ns"]


def traffic_point(spec):
    """One sweep point: build the scenario from a picklable spec, run it,
    return the traffic rollup plus the full snapshot."""
    name, kwargs, n_nodes = spec
    t0 = time.monotonic()
    run = run_scenario(scenario(name, **kwargs), n_nodes=n_nodes)
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
            {"per_node": args.per_node, "rate_rps": rate},
            args.nodes)


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
    (wall-stripped) when computed in pool worker processes.  Two copies
    go to a two-worker pool, since :func:`run_sweep` runs a one-point
    list inline."""
    rate = baseline_point["rate_rps"]
    base = comparable(dict(baseline_point["snapshot"]))
    pooled = run_sweep(traffic_point, [_kv_spec(rate, args)] * 2, jobs=2)
    return {
        "rate_rps": rate,
        "jobs4_identical": all(comparable(p["snapshot"]) == base
                               for p in pooled),
    }


def train_points(args):
    """The training rows."""
    points = []
    for mode, algo in TRAIN_ROWS:
        kwargs = {"mode": mode, "steps": args.steps,
                  "n_blocks": args.blocks}
        if mode == "allreduce":
            kwargs["algo"] = algo
        spec = ("traffic_train", kwargs, args.nodes)
        p = traffic_point(spec)
        p["variant"] = f"{mode}/{algo}" if mode == "allreduce" else mode
        points.append(p)
    return points


def usvc_point(args):
    return traffic_point(("traffic_usvc",
                          {"per_node": args.per_node, **USVC_SHAPE},
                          args.nodes))


def _flags(parser):
    parser.add_argument("--nodes", type=int, default=64,
                        help="machine size (default 64)")
    parser.add_argument("--rates", default=None,
                        help="comma-separated KV offered-load axis in "
                             "req/s per node (default "
                             "20k,50k,100k,200k,400k)")
    parser.add_argument("--per-node", type=int, default=8,
                        help="requests per node per point (default 8)")
    parser.add_argument("--steps", type=int, default=2,
                        help="training steps per run (default 2)")
    parser.add_argument("--blocks", type=int, default=2,
                        help="parameter blocks per step (default 2)")
    parser.add_argument("--skip-parity", action="store_true",
                        help="skip the jobs determinism re-run")


def _sim(point, args):
    """A point's simulated part: no wall seconds, and its (wall-stripped)
    snapshot only with ``--emit-metrics``."""
    sim = {k: v for k, v in point.items()
           if k not in ("wall_seconds", "snapshot")}
    if args.emit_metrics:
        sim["snapshot"] = strip_wall(point["snapshot"])
    return sim


def run(args):
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
        f"X-traffic: KV offered load vs goodput @ {args.nodes} nodes",
        KV_HEADER, kv_rows)

    trains = train_points(args)
    usvc = usvc_point(args)
    app_rows = [_app_row("ps", p["variant"], p["traffic"]) for p in trains]
    app_rows.append(_app_row(
        "usvc", f"d{USVC_SHAPE['depth']}xf{USVC_SHAPE['fanout']}",
        usvc["traffic"]))
    print_table(f"X-traffic: training + fan-out @ {args.nodes} nodes",
                APP_HEADER, app_rows)

    mid = kv_points[len(kv_points) // 2]
    parity = None
    if not args.skip_parity:
        parity = parity_checks(args, mid)
        print(f"parity @ {round(parity['rate_rps'])} req/s/node: "
              f"pooled={parity['jobs4_identical']}")

    low, high = kv_points[0], kv_points[-1]
    low_goodput = low["traffic"].get("kv", {}).get("goodput", 0.0)
    high_goodput = high["traffic"].get("kv", {}).get("goodput", 1.0)

    knee_visible = high_goodput < low_goodput
    path = write_record(
        args.json, "traffic",
        {"n_nodes": args.nodes},
        {"kv_points": [_sim(p, args) for p in kv_points],
         "train_points": [_sim(p, args) for p in trains],
         "usvc_point": _sim(usvc, args),
         "parity": parity,
         "low_load_goodput": low_goodput,
         "high_load_goodput": high_goodput,
         "knee_visible": knee_visible},
        {"seconds": {"kv_points": [p["wall_seconds"] for p in kv_points],
                     "train_points": [p["wall_seconds"] for p in trains],
                     "usvc_point": usvc["wall_seconds"]}})
    print(f"record: {path}")

    claims = {
        f"low-load KV goodput {low_goodput:.3f} > {MIN_GOODPUT}":
            low_goodput > MIN_GOODPUT,
        f"SLO knee: goodput {high_goodput:.3f} at "
        f"{round(high['rate_rps'])} req/s/node below {low_goodput:.3f} at "
        f"{round(low['rate_rps'])}": knee_visible,
    }
    if parity is not None:
        claims[f"traffic metrics deterministic in a process pool: "
               f"{parity}"] = parity["jobs4_identical"]
    for p in trains + [usvc]:
        app = "usvc" if p["scenario"] == "traffic_usvc" else "ps"
        t = p["traffic"].get(app, {})
        if t.get("offered", 0):
            claims[f"{p['scenario']} {p.get('variant', '')} completed "
                   f"{t['completed']} of {t['offered']} offered"] = (
                t["completed"] == t["offered"])
    return check_claims(claims)


BENCH = {
    "summary": "X-traffic: KV / parameter-server / microservice serving "
               "load with goodput + tail-latency SLO curves",
    "flags": _flags,
    "run": run,
}
