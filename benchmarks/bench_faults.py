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

The record lands in
``benchmarks/results/faults.json``, ``--emit-metrics`` adds each point's
metrics snapshot to it::

    python -m repro.bench faults --emit-metrics
    python -m repro.bench faults --jobs 4 --emit-metrics

The CLI exits nonzero if any reliable point fails 100% delivery, which
is what the golden gate's ``faults`` entry checks.
"""

import sys

from repro.bench import (
    check_claims,
    fresh_machine,
    print_table,
    run_sweep,
    strip_wall,
    write_record,
)
from repro.faults import FaultPlan
from repro.lib.mpi import MiniMPI
from repro.mp.basic import BasicPort
from repro.obs.snapshot import metrics_snapshot

HEADER = ["workload", "loss", "reliable", "sent", "delivered", "goodput",
          "retx", "timeouts", "corrupt", "p50_us", "p99_us"]

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
    counters = machine.metrics()["counters"]
    return {
        "retransmits": sum(v for k, v in counters.items()
                           if k.endswith(".rel.retransmits")),
        "timeouts": sum(v for k, v in counters.items()
                        if k.endswith(".rel.timeouts")),
        "corrupt_drops": sum(v for k, v in counters.items()
                             if ".rx_drops." in k and k.endswith(".corrupt")),
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
            got = yield from comm.allreduce(api, rank + 1)
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


def run(args):
    points = fault_sweep(jobs=args.jobs)
    rows = [[p["workload"], p["loss"], p["reliable"], p["sent"],
             p["delivered"], f"{p['goodput']:.3f}", p["retransmits"],
             p["timeouts"], p["corrupt_drops"], _us(p["p50_latency_ns"]),
             _us(p["p99_latency_ns"])] for p in points]
    print_table("X-faults: goodput and latency under injected loss",
                HEADER, rows)

    if not args.emit_metrics:
        points = [{k: v for k, v in p.items() if k != "metrics"}
                  for p in points]
    path = write_record(args.json, "faults",
                        {"loss_rates": list(LOSS_RATES)},
                        {"points": points}, {})
    print(f"record: {path}")

    lossy_unreliable = [p for p in points
                        if not p["reliable"] and p["loss"] > 0.0]
    if lossy_unreliable and all(p["goodput"] >= 1.0
                                for p in lossy_unreliable):
        print("note: unreliable rows lost nothing this seed", file=sys.stderr)
    return check_claims({
        f"reliable {p['workload']} at loss={p['loss']} delivered "
        f"{p['delivered']}/{p['sent']}": p["goodput"] >= 1.0
        for p in points if p["reliable"]})


BENCH = {
    "summary": "Goodput and latency under injected loss, plain vs reliable",
    "flags": None,
    "run": run,
}
