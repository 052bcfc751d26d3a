"""One-shot experiment report: regenerate every table and figure.

``python -m repro.bench.report`` runs the full experiment suite against
the simulator and prints the paper-style tables — the same numbers the
``benchmarks/`` targets assert on and EXPERIMENTS.md records, each one a
registered :mod:`repro.scenarios` point.  Use
``--quick`` to skip the 64 KB sweep points.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from repro.bench.harness import FIG_SIZES, print_table
from repro.scenarios import measure


def report_block_transfer(sizes: List[int], plot: bool = False) -> None:
    """F3 + F4 + T-occ + X-A45 in one sweep."""
    lat_rows, bw_rows, results = [], [], []
    for size in sizes:
        lat, bw = [size], [size]
        for approach in (1, 2, 3, 4, 5):
            r = measure("block_transfer", approach=approach, size=size)
            assert r.verified, f"A{approach}/{size} corrupted data"
            lat.append(r.notify_latency_ns / 1000.0)
            bw.append(r.bandwidth_mb_s)
            results.append(r)
        lat_rows.append(lat)
        bw_rows.append(bw)
    header = ["size_B"] + [f"A{a}" for a in (1, 2, 3, 4, 5)]
    print_table("Figure 3: latency to completion message (us)", header,
                lat_rows)
    print_table("Figure 4: bandwidth to completion message (MB/s)", header,
                bw_rows)
    if plot:
        from repro.bench.plots import figure3, figure4

        # plot approaches 1-3, the paper's published series
        published = [r for r in results if r.approach <= 3]
        print()
        print(figure3(published))
        print(figure4(published))
    occ_rows = []
    for approach in (1, 2, 3, 4, 5):
        occ = measure("block_transfer", approach=approach,
                      size=8192).occupancy_row()
        occ_rows.append([f"A{approach}", occ["sender_ap"],
                         occ["sender_sp"], occ["receiver_sp"]])
    print_table("Occupancy during an 8 KB transfer",
                ["approach", "sender aP", "sender sP", "receiver sP"],
                occ_rows)


def report_mechanisms() -> None:
    """X-mp microbenchmarks."""
    print_table("Mechanism microbenchmarks", ["mechanism", "metric", "value"], [
        ["express", "one-way ns", measure("express")],
        ["basic", "one-way ns (8 B)", measure("basic", payload_bytes=8)],
        ["basic", "one-way ns (88 B)", measure("basic", payload_bytes=88)],
        ["basic", "stream MB/s (64 B)", measure("basic_stream")["mb_per_s"]],
        ["mini-MPI", "one-way ns (64 B)", measure("mpi_pingpong")],
    ])


def report_shared_memory() -> None:
    """X-shm: NUMA vs S-COMA."""
    scoma = measure("scoma_read")
    print_table("Shared memory (ns)", ["mechanism", "access", "latency"], [
        ["NUMA", "remote read, every access", measure("numa_read")],
        ["S-COMA", "cold miss", scoma["cold"]],
        ["S-COMA", "warm hit", scoma["warm"]],
    ])


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Regenerate the StarT-Voyager reproduction's tables")
    parser.add_argument("--quick", action="store_true",
                        help="skip the largest sweep points")
    parser.add_argument("--plot", action="store_true",
                        help="render ASCII versions of Figures 3/4")
    parser.add_argument("--only", choices=["blocks", "mechanisms", "shm"],
                        help="run a single section")
    args = parser.parse_args(argv)
    sizes = [s for s in FIG_SIZES if not (args.quick and s > 16384)]
    if args.only in (None, "blocks"):
        report_block_transfer(sizes, plot=args.plot)
    if args.only in (None, "mechanisms"):
        report_mechanisms()
    if args.only in (None, "shm"):
        report_shared_memory()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
