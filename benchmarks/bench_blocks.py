"""Experiments F3, F4, X-A45 and T-occ — the §6 block transfers.

One sweep of the five approaches over ``FIG_SIZES``, plus an 8 KB
transfer for approaches 1-3, each point one block transfer on a fresh
two-node machine.  Every row carries the notification latency (sender
starts work -> receiver reads the completion message), the data-ready
latency (the receiver may consume every byte), the bandwidth to the
completion message, the data check and the per-processor occupancy over
the transfer window.

Claims checked (the paper's §6 text, and what this reproduction adds):

* Figure 3 — approach 1's per-message aP overhead makes it worst at
  64 KB but best for a 256 B transfer (no firmware round-trip);
  approach 3 beats approach 2 at scale;
* Figure 4 — at 64 KB "Approach 3 has the best performance in terms of
  bandwidth", then 2, then 1 ("data needs to be moved over the aP bus
  twice on each side");
* approaches 4 and 5 (the paper's "under investigation" variants:
  optimistic notification over S-COMA state) notify far earlier than
  approach 3, consume no more than ~10% later, and approach 4 pays
  receiver-sP time that approach 5's hardware absorbs;
* T-occ at 8 KB — approach 1 is aP-bound, approach 2 moves the load to
  the sPs below approach 1's aP load, approach 3's occupancy is
  "minimal to nil".

::

    python -m repro.bench blocks --emit-metrics --jobs 4
    python -m repro.bench blocks --trace --approach 3 --size 4096

The record lands in ``benchmarks/results/blocks.json``;
``--emit-metrics`` adds one schema-versioned ``machine.metrics()``
snapshot per point; ``--jobs N`` fans the sweep out over N processes
with byte-identical output; ``--trace`` renders one transfer as a
Chrome/Perfetto trace_event file next to the record (open at
ui.perfetto.dev).
"""

import os

from repro.bench import (
    FIG_SIZES,
    block_transfer_point,
    check_claims,
    fresh_machine,
    print_table,
    run_sweep,
    write_record,
)
from repro.core.blocktransfer import BlockTransferExperiment

APPROACHES = (1, 2, 3, 4, 5)
#: the T-occ transfer size, measured for approaches 1-3.
OCC_SIZE = 8192

HEADER = ["approach", "size_B", "notify_us", "data_ready_us", "MB_s",
          "verified", "sender_aP", "sender_sP", "recv_aP", "recv_sP"]


def claims(points):
    """Every §6 claim over the sweep, ``{claim: held}``."""
    at = {(p["approach"], p["size_bytes"]): p for p in points}
    out = {f"A{p['approach']}/{p['size_bytes']} B transfer verified":
           p["verified"] for p in points}

    def notify(a, size):
        return at[(a, size)]["notify_latency_ns"]

    def ready(a, size):
        return at[(a, size)]["data_ready_latency_ns"]

    def bw(a):
        return at[(a, 65536)]["bandwidth_mb_s"]

    def occ(a, size=OCC_SIZE):
        return at[(a, size)]["occupancy"]

    out.update({
        "F3: A1 notify < A2 notify at 256 B": notify(1, 256) < notify(2, 256),
        "F3: A1 notify < A3 notify at 256 B": notify(1, 256) < notify(3, 256),
        "F3: A3 notify < A2 notify at 64 KB":
            notify(3, 65536) < notify(2, 65536),
        "F3: A3 notify < A1 notify at 64 KB":
            notify(3, 65536) < notify(1, 65536),
        "F4: A3 bandwidth > A2 bandwidth at 64 KB": bw(3) > bw(2),
        "F4: A2 bandwidth > A1 bandwidth at 64 KB": bw(2) > bw(1),
    })
    for a in (4, 5):
        out[f"X-A45: A{a} notify < 0.55 x A3 notify at 16 KB"] = (
            notify(a, 16384) < 0.55 * notify(3, 16384))
    for a in (4, 5):
        out[f"X-A45: A{a} data ready <= 1.10 x A3 data ready at 16 KB"] = (
            ready(a, 16384) <= 1.10 * ready(3, 16384))
    occ1, occ2, occ3 = occ(1), occ(2), occ(3)
    out.update({
        "X-A45: A4 receiver sP > 5 x A5 receiver sP at 16 KB":
            occ(4, 16384)["receiver_sp"] > 5 * occ(5, 16384)["receiver_sp"],
        "T-occ: A1 sender aP > 0.5 and sender sP < 0.05":
            occ1["sender_ap"] > 0.5 and occ1["sender_sp"] < 0.05,
        "T-occ: A2 sender aP < 0.05": occ2["sender_ap"] < 0.05,
        "T-occ: A2 sender sP > 0.2": occ2["sender_sp"] > 0.2,
        "T-occ: A2 sender sP < A1 sender aP":
            occ2["sender_sp"] < occ1["sender_ap"],
        "T-occ: A3 sender aP < 0.05 and sender sP < 0.10":
            occ3["sender_ap"] < 0.05 and occ3["sender_sp"] < 0.10,
        "T-occ: A3 receiver sP < 0.05": occ3["receiver_sp"] < 0.05,
    })
    return out


def _traced_transfer(approach, size, path):
    """One transfer with full tracing on, rendered as a Perfetto file."""
    machine = fresh_machine(2)
    machine.obs.enable("ap", "sp", "niu", "net")
    machine.obs.start_sampler(period_ns=500.0)
    BlockTransferExperiment(machine).run(approach, size)
    machine.obs.stop_samplers()
    machine.obs.export_perfetto(path)
    return path


def _flags(parser):
    parser.add_argument("--approach", type=int, default=3,
                        choices=(1, 2, 3),
                        help="approach for --trace (default 3)")
    parser.add_argument("--size", type=int, default=4096,
                        help="transfer size for --trace (default 4096)")


def run(args):
    specs = ([(a, size) for a in APPROACHES for size in FIG_SIZES]
             + [(a, OCC_SIZE) for a in (1, 2, 3)])
    points = run_sweep(block_transfer_point, specs, jobs=args.jobs)
    rows = [[f"A{p['approach']}", p["size_bytes"],
             p["notify_latency_ns"] / 1000.0,
             p["data_ready_latency_ns"] / 1000.0, p["bandwidth_mb_s"],
             p["verified"], p["occupancy"]["sender_ap"],
             p["occupancy"]["sender_sp"], p["occupancy"]["receiver_ap"],
             p["occupancy"]["receiver_sp"]] for p in points]
    print_table("§6 block transfers (F3 latency, F4 bandwidth, X-A45, "
                "T-occ)", HEADER, rows)
    status = check_claims(claims(points))

    if not args.emit_metrics:
        points = [{k: v for k, v in p.items() if k != "metrics"}
                  for p in points]
    path = write_record(args.json, "blocks",
                        {"approaches": list(APPROACHES), "sizes": FIG_SIZES,
                         "occupancy_size": OCC_SIZE},
                        {"points": points}, {})
    print(f"record: {path}")

    if args.trace:
        path = _traced_transfer(
            args.approach, args.size,
            os.path.join(os.path.dirname(args.json), "blocks_trace.json"))
        print(f"trace:  {path}")
    return status


BENCH = {
    "summary": "§6 block transfers: latency, bandwidth, occupancy, A1-A5",
    "flags": _flags,
    "run": run,
}
