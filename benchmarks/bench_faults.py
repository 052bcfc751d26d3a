"""Experiment X-faults — goodput and latency under injected loss.

Sweeps seeded link-fault plans (drop + corrupt probability) against two
workloads, with and without the go-back-N ack/retransmit firmware:

* ``stream`` — a one-way Basic-message flood, rank 0 -> rank 1.  The
  unreliable rows lose messages in proportion to the loss rate; the
  reliable rows deliver 100% at the cost of retransmissions and
  latency-tail growth.
* ``allreduce`` — reliable tree allreduce on four nodes, showing a
  collective built from point-to-point surviving a lossy fabric.

Per point: delivered/sent goodput, retransmit and timeout counts,
corrupt-drop counts, and delivered-message latency percentiles (each
payload carries its send timestamp).  Everything is seeded — the sweep
is byte-identical for any ``--jobs`` value.

Also runnable directly (no pytest) for machine-readable output::

    python -m repro.bench faults --emit-metrics
    python -m repro.bench faults --jobs 4 --emit-metrics

The CLI exits nonzero if any reliable point fails 100% delivery, which
is what the CI chaos-smoke job checks.
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
from repro.faults import FaultPlan
from repro.lib.mpi import MiniMPI
from repro.mp.basic import BasicPort
from repro.obs.snapshot import metrics_snapshot

HEADER = ["workload", "loss", "reliable", "sent", "delivered", "goodput",
          "retx", "timeouts", "corrupt", "p50_us", "p99_us"]

#: where the CLI drops its artifacts.
RESULTS_DIR = os.path.join(_ROOT, "benchmarks", "results")

#: the loss axis: per-packet drop probability (corrupt runs at half it).
LOSS_RATES = (0.0, 0.01, 0.05)

STREAM_COUNT = 120
STREAM_PAYLOAD = 32  # fits both plain (88) and reliable (84) payload caps
ALLREDUCE_NODES = 4
ALLREDUCE_REPEATS = 6
SYNC_NODES = 8
SYNC_BARRIER_ROUNDS = 4


def _plan(loss, seed=1):
    """The sweep's fault plan: drop at ``loss``, corrupt at half of it."""
    if loss <= 0.0:
        return None
    return FaultPlan.uniform_loss(loss, corrupt_p=loss / 2.0, seed=seed)


def _pctl(xs, q):
    """Nearest-rank percentile of a list (None when empty)."""
    if not xs:
        return None
    xs = sorted(xs)
    idx = min(len(xs) - 1, max(0, int(round(q / 100.0 * len(xs) + 0.5)) - 1))
    return xs[idx]


def _rel_counters(machine):
    rep = machine.stats.report()
    return {
        "retransmits": int(sum(v for k, v in rep.items()
                               if k.endswith(".rel.retransmits"))),
        "timeouts": int(sum(v for k, v in rep.items()
                            if k.endswith(".rel.timeouts"))),
        "corrupt_drops": int(sum(v for k, v in rep.items()
                                 if ".rx_drops." in k
                                 and k.endswith(".corrupt"))),
    }


def stream_point(spec):
    """One flood point: ``(loss, reliable)`` -> result row.

    Rank 0 sends ``STREAM_COUNT`` stamped messages to rank 1; the
    receiver polls until the line goes quiet (long enough to cover the
    maximum retransmit backoff), counting arrivals and their latencies.
    """
    loss, reliable = spec
    machine = fresh_machine(2, faults=_plan(loss))
    p0 = BasicPort(machine.node(0), 0, 0)
    p1 = BasicPort(machine.node(1), 0, 0)
    # reliable retransmission needs the line quiet for > max RTO before
    # the receiver may conclude nothing more is coming
    idle_ns = (2.5e6 if reliable else 1e5)

    def sender(api):
        for i in range(STREAM_COUNT):
            stamp = int(api.now * 1000)  # ps, fits 8 bytes
            payload = (i.to_bytes(4, "big") + stamp.to_bytes(8, "big"))
            payload = payload.ljust(STREAM_PAYLOAD, b"\x00")
            if reliable:
                yield from p0.send_reliable(api, 1, payload)
            else:
                from repro.mp import vdst_for
                yield from p0.send(api, vdst_for(1, 0), payload)

    def receiver(api):
        latencies = []
        last_rx = api.now
        while len(latencies) < STREAM_COUNT and api.now - last_rx < idle_ns:
            msg = yield from p1.poll(api)
            if msg is None:
                yield from api.compute(500)
                continue
            _src, payload = msg
            stamp = int.from_bytes(payload[4:12], "big")
            latencies.append(api.now - stamp / 1000.0)
            last_rx = api.now
        return latencies

    s = machine.spawn(0, sender)
    r = machine.spawn(1, receiver)
    results = machine.run_all([s, r], limit=1e10)
    latencies = results[1]
    row = {
        "workload": "stream",
        "loss": loss,
        "reliable": reliable,
        "sent": STREAM_COUNT,
        "delivered": len(latencies),
        "goodput": len(latencies) / STREAM_COUNT,
        "p50_latency_ns": _pctl(latencies, 50),
        "p99_latency_ns": _pctl(latencies, 99),
    }
    row.update(_rel_counters(machine))
    row["metrics"] = strip_wall(metrics_snapshot(machine,
                                                 include_config=False))
    return row


def allreduce_point(spec):
    """One collective point: ``(loss,)`` -> reliable tree allreduce."""
    (loss,) = spec
    machine = fresh_machine(ALLREDUCE_NODES, faults=_plan(loss))
    mpi = MiniMPI(machine, algo="tree", reliable=True)
    expect = sum(range(1, ALLREDUCE_NODES + 1))

    def worker(api, rank):
        comm = mpi.rank(rank)
        oks = 0
        for _ in range(ALLREDUCE_REPEATS):
            got = yield from comm.allreduce(api, rank + 1, op="sum")
            oks += int(got == expect)
        return oks

    t0 = machine.now
    procs = [machine.spawn(n, worker, n) for n in range(ALLREDUCE_NODES)]
    results = machine.run_all(procs, limit=1e10)
    total = ALLREDUCE_NODES * ALLREDUCE_REPEATS
    correct = sum(results)
    per_op_ns = (machine.now - t0) / ALLREDUCE_REPEATS
    row = {
        "workload": "allreduce",
        "loss": loss,
        "reliable": True,
        "sent": total,
        "delivered": correct,
        "goodput": correct / total,
        "p50_latency_ns": per_op_ns,
        "p99_latency_ns": per_op_ns,
    }
    row.update(_rel_counters(machine))
    row["metrics"] = strip_wall(metrics_snapshot(machine,
                                                 include_config=False))
    return row


def sync_barrier_point(spec):
    """One in-switch barrier point under injected loss: ``(loss,)``.

    Sync-tagged packets ride the fault-exempt protected channel (a
    dropped combined request would wedge decombine state fabric-wide),
    so the ``algo="switch"`` barrier must complete every round at any
    tested loss rate — that completion is the goodput this row gates.
    """
    (loss,) = spec
    machine = fresh_machine(SYNC_NODES, faults=_plan(loss, seed=3))
    mpi = MiniMPI(machine, algo="switch", reliable=True)

    def worker(api, rank):
        comm = mpi.rank(rank)
        done = 0
        for _ in range(SYNC_BARRIER_ROUNDS):
            yield from comm.barrier(api)
            done += 1
        return done

    t0 = machine.now
    procs = [machine.spawn(n, worker, n) for n in range(SYNC_NODES)]
    results = machine.run_all(procs, limit=1e10)
    total = SYNC_NODES * SYNC_BARRIER_ROUNDS
    per_op_ns = (machine.now - t0) / SYNC_BARRIER_ROUNDS
    row = {
        "workload": "sync_barrier",
        "loss": loss,
        "reliable": True,
        "sent": total,
        "delivered": sum(results),
        "goodput": sum(results) / total,
        "p50_latency_ns": per_op_ns,
        "p99_latency_ns": per_op_ns,
    }
    row.update(_rel_counters(machine))
    row["metrics"] = strip_wall(metrics_snapshot(machine,
                                                 include_config=False))
    return row


def fault_sweep(jobs=1, loss_rates=LOSS_RATES):
    """The full grid, in point order (byte-identical for any ``jobs``)."""
    stream_specs = [(loss, reliable)
                    for loss in loss_rates for reliable in (False, True)]
    allreduce_specs = [(loss,) for loss in loss_rates]
    points = run_sweep(stream_point, stream_specs, jobs=jobs)
    points += run_sweep(allreduce_point, allreduce_specs, jobs=jobs)
    points += run_sweep(sync_barrier_point, allreduce_specs, jobs=jobs)
    return points


def _us(v):
    return "-" if v is None else v / 1000.0


def _flags(parser):
    parser.add_argument("--out-dir", default=RESULTS_DIR,
                        help="artifact directory (default benchmarks/results)")


def run(args):
    if args.sanitize:
        from repro.analysis.sanitize import resolve_sanitizers

        resolve_sanitizers(args.sanitize, env="")  # fail fast on typos
        # the environment propagates to sweep pool workers, so every
        # point's machine comes up with the checkers installed
        os.environ["REPRO_SANITIZE"] = args.sanitize

    points = fault_sweep(jobs=args.jobs)
    rows = [[p["workload"], p["loss"], p["reliable"], p["sent"],
             p["delivered"], f"{p['goodput']:.3f}", p["retransmits"],
             p["timeouts"], p["corrupt_drops"], _us(p["p50_latency_ns"]),
             _us(p["p99_latency_ns"])] for p in points]
    print_table("X-faults: goodput and latency under injected loss",
                HEADER, rows)

    if args.emit_metrics or args.json:
        document = {
            "benchmark": "faults",
            "schema": "startv.metrics",
            "schema_version": 1,
            "points": points,
        }
        path = emit_json(
            args.json or os.path.join(args.out_dir, "faults_metrics.json"),
            document)
        print(f"metrics: {path}")

    undelivered = [p for p in points
                   if p["reliable"] and p["goodput"] < 1.0]
    if undelivered:
        for p in undelivered:
            print(f"FAIL: reliable {p['workload']} at loss={p['loss']} "
                  f"delivered {p['delivered']}/{p['sent']}", file=sys.stderr)
        return 1
    lossy_unreliable = [p for p in points
                        if not p["reliable"] and p["loss"] > 0.0]
    if lossy_unreliable and all(p["goodput"] >= 1.0
                                for p in lossy_unreliable):
        print("note: unreliable rows lost nothing this seed", file=sys.stderr)
    return 0


BENCH = {
    "summary": "Goodput and latency under injected loss, plain vs reliable",
    "flags": _flags,
    "run": run,
}
