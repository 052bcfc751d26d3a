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

``--emit-metrics`` writes the sweep with one schema-versioned
``machine.metrics()`` snapshot per data point (p50/p90/p99 included);
``--jobs N`` fans the grid out over N processes with byte-identical
output (each point is an independent seeded simulation — see
:func:`repro.bench.run_sweep`); ``--trace`` renders one transfer as a
Chrome/Perfetto trace_event file (open at ui.perfetto.dev).
"""

import os
import sys

# imported with only benchmarks/ on sys.path (e.g. a bare pytest run);
# make the repo root and src/ importable
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_ROOT, os.path.join(_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import pytest

from benchmarks.conftest import record
from repro.bench import (
    FIG_SIZES,
    block_transfer_metrics_sweep,
    fresh_machine,
    print_table,
    run_block_transfer,
)
from repro.core.blocktransfer import BlockTransferExperiment
from repro.obs import write_metrics

HEADER = ["approach", "size_B", "latency_us", "verified"]

#: where the CLI drops its artifacts.
RESULTS_DIR = os.path.join(_ROOT, "benchmarks", "results")


@pytest.mark.parametrize("approach", [1, 2, 3])
@pytest.mark.parametrize("size", FIG_SIZES)
def test_fig3_latency(benchmark, approach, size):
    result = benchmark.pedantic(
        run_block_transfer, args=(approach, size), rounds=1, iterations=1
    )
    assert result.verified
    row = [f"A{approach}", size, result.notify_latency_ns / 1000.0,
           result.verified]
    record("Figure 3: block transfer latency (us)", HEADER, row)


def test_fig3_shape(benchmark):
    """The series' shape: A1 best at 256 B, worst at 64 KB."""

    def series():
        small = {a: run_block_transfer(a, 256) for a in (1, 2, 3)}
        large = {a: run_block_transfer(a, 65536) for a in (1, 2, 3)}
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
    parser.add_argument("--out-dir", default=RESULTS_DIR,
                        help="artifact directory (default benchmarks/results)")


def run(args):
    points = block_transfer_metrics_sweep((1, 2, 3), FIG_SIZES,
                                          jobs=args.jobs)
    rows = [[f"A{p['approach']}", p["size_bytes"],
             p["notify_latency_ns"] / 1000.0, p["verified"]] for p in points]
    print_table("Figure 3: block transfer latency (us)", HEADER, rows)

    if args.emit_metrics or args.json:
        document = {
            "benchmark": "fig3_latency",
            "schema": "startv.metrics",
            "schema_version": 1,
            "points": points,
        }
        path = write_metrics(
            args.json or os.path.join(args.out_dir, "fig3_metrics.json"),
            document)
        print(f"metrics: {path}")

    if args.trace:
        path = _traced_transfer(
            args.approach, args.size,
            os.path.join(args.out_dir, "fig3_trace.json"))
        print(f"trace:   {path}")


BENCH = {
    "summary": "Figure 3: block-transfer latency sweep, approaches 1-3",
    "flags": _flags,
    "run": run,
}
