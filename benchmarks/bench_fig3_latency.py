"""Experiment F3 — Figure 3: block-transfer **latency**, approaches 1-3.

Regenerates the latency-vs-size series of the paper's first §6 figure:
one block transfer per data point, latency measured from the sender
starting work to the receiver reading the completion message.

Expected shape (from the paper's text): approach 1's per-message aP
overhead makes it worst at scale but competitive for tiny transfers
(no firmware round-trip); approaches 2 and 3 amortize their setup and
win as size grows, with 3 ahead of 2.

Also runnable directly (no pytest) for machine-readable output::

    python -m repro.bench fig3_latency --emit-metrics
    python -m repro.bench fig3_latency --jobs 4 --emit-metrics
    python -m repro.bench fig3_latency --trace --size 4096

The record lands in ``benchmarks/results/fig3_latency.json``;
``--emit-metrics`` adds one schema-versioned ``machine.metrics()``
snapshot per data point (p50/p90/p99 included); ``--jobs N`` fans the
grid out over N processes with byte-identical output (each point is an
independent seeded simulation — see :func:`repro.bench.run_sweep`);
``--trace`` renders one transfer as a Chrome/Perfetto trace_event file
next to the record (open at ui.perfetto.dev).
"""

import os

import pytest

from benchmarks.conftest import record
from repro.bench import (
    FIG_SIZES,
    block_transfer_metrics_sweep,
    fresh_machine,
    print_table,
    write_record,
)
from repro.core.blocktransfer import BlockTransferExperiment
from repro.scenarios import measure

HEADER = ["approach", "size_B", "latency_us", "verified"]


@pytest.mark.parametrize("approach", [1, 2, 3])
@pytest.mark.parametrize("size", FIG_SIZES)
def test_fig3_latency(benchmark, approach, size):
    result = benchmark.pedantic(
        measure, args=("block_transfer",),
        kwargs={"approach": approach, "size": size}, rounds=1, iterations=1
    )
    assert result.verified
    row = [f"A{approach}", size, result.notify_latency_ns / 1000.0,
           result.verified]
    record("Figure 3: block transfer latency (us)", HEADER, row)


def test_fig3_shape(benchmark):
    """The series' shape: A1 best at 256 B, worst at 64 KB."""

    def series():
        small = {a: measure("block_transfer", approach=a, size=256)
                 for a in (1, 2, 3)}
        large = {a: measure("block_transfer", approach=a, size=65536)
                 for a in (1, 2, 3)}
        return small, large

    small, large = benchmark.pedantic(series, rounds=1, iterations=1)
    assert small[1].notify_latency_ns < small[2].notify_latency_ns
    assert small[1].notify_latency_ns < small[3].notify_latency_ns
    assert large[3].notify_latency_ns < large[2].notify_latency_ns
    assert large[3].notify_latency_ns < large[1].notify_latency_ns


# ----------------------------------------------------------------------
# direct CLI
# ----------------------------------------------------------------------

def _traced_transfer(approach, size, path):
    """One transfer with full tracing on, rendered as a Perfetto file."""
    machine = fresh_machine(2)
    machine.obs.enable("ap", "sp", "niu", "net")
    sampler = machine.obs.start_sampler(period_ns=500.0)
    BlockTransferExperiment(machine).run(approach, size)
    machine.obs.stop_samplers()
    machine.obs.export_perfetto(path)
    del sampler
    return path


def _flags(parser):
    parser.add_argument("--approach", type=int, default=3, choices=(1, 2, 3),
                        help="approach for --trace (default 3)")
    parser.add_argument("--size", type=int, default=4096,
                        help="transfer size for --trace (default 4096)")


def run(args):
    points = block_transfer_metrics_sweep((1, 2, 3), FIG_SIZES,
                                          jobs=args.jobs)
    rows = [[f"A{p['approach']}", p["size_bytes"],
             p["notify_latency_ns"] / 1000.0, p["verified"]] for p in points]
    print_table("Figure 3: block transfer latency (us)", HEADER, rows)

    if not args.emit_metrics:
        points = [{k: v for k, v in p.items() if k != "metrics"}
                  for p in points]
    path = write_record(args.json, "fig3_latency",
                        {"approaches": [1, 2, 3], "sizes": FIG_SIZES},
                        {"points": points}, {})
    print(f"record: {path}")

    if args.trace:
        path = _traced_transfer(
            args.approach, args.size,
            os.path.join(os.path.dirname(args.json), "fig3_trace.json"))
        print(f"trace:  {path}")


BENCH = {
    "summary": "Figure 3: block-transfer latency sweep, approaches 1-3",
    "flags": _flags,
    "run": run,
}
