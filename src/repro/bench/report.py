"""One-shot experiment report: regenerate every table and figure.

``python -m repro.bench.report`` runs the full experiment suite against
the simulator and prints the paper-style tables — the same numbers the
``blocks``, ``mechanisms`` and ``shm`` benches record and EXPERIMENTS.md
records, each one a registered :mod:`repro.scenarios` point.  Use
``--quick`` to skip the 64 KB sweep points.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.bench.harness import FIG_SIZES, block_transfer_point, print_table
from repro.scenarios import measure

APPROACHES = (1, 2, 3, 4, 5)
#: the transfer size of the occupancy table.
OCC_SIZE = 8192


def report_block_transfer(sizes: List[int], plot: bool = False,
                          known: Optional[Dict[str, Any]] = None) -> None:
    """F3 + F4 + T-occ + X-A45 in one sweep.  ``known`` is a ``blocks``
    record's ``sim``: its points are shown, not measured again."""
    rows = {(p["approach"], p["size_bytes"]): p
            for p in (known or {}).get("points", ())}
    specs = ([(a, size) for size in sizes for a in APPROACHES]
             + [(a, OCC_SIZE) for a in APPROACHES])
    for spec in specs:
        if spec not in rows:
            rows[spec] = block_transfer_point(spec)
        assert rows[spec]["verified"], "A%d/%d corrupted data" % spec
    header = ["size_B"] + [f"A{a}" for a in APPROACHES]
    print_table("Figure 3: latency to completion message (us)", header,
                [[size] + [rows[(a, size)]["notify_latency_ns"] / 1000.0
                           for a in APPROACHES] for size in sizes])
    print_table("Figure 4: bandwidth to completion message (MB/s)", header,
                [[size] + [rows[(a, size)]["bandwidth_mb_s"]
                           for a in APPROACHES] for size in sizes])
    if plot:
        from repro.bench.plots import figure3, figure4

        # plot approaches 1-3, the paper's published series
        published = [rows[(a, size)] for size in sizes for a in (1, 2, 3)]
        print()
        print(figure3(published))
        print(figure4(published))
    occ_rows = []
    for approach in APPROACHES:
        occ = rows[(approach, OCC_SIZE)]["occupancy"]
        occ_rows.append([f"A{approach}", occ["sender_ap"],
                         occ["sender_sp"], occ["receiver_sp"]])
    print_table("Occupancy during an 8 KB transfer",
                ["approach", "sender aP", "sender sP", "receiver sP"],
                occ_rows)


def report_mechanisms(known: Optional[Dict[str, Any]] = None) -> None:
    """X-mp microbenchmarks; ``known`` is a ``mechanisms`` record's
    ``sim``."""
    sim = known or {
        "express_ns": measure("express"),
        "basic_ns": {str(n): measure("basic", payload_bytes=n)
                     for n in (8, 88)},
        "basic_stream": measure("basic_stream"),
        "mpi_ns": measure("mpi_pingpong"),
    }
    print_table("Mechanism microbenchmarks", ["mechanism", "metric", "value"], [
        ["express", "one-way ns", sim["express_ns"]],
        ["basic", "one-way ns (8 B)", sim["basic_ns"]["8"]],
        ["basic", "one-way ns (88 B)", sim["basic_ns"]["88"]],
        ["basic", "stream MB/s (64 B)", sim["basic_stream"]["mb_per_s"]],
        ["mini-MPI", "one-way ns (64 B)", sim["mpi_ns"]],
    ])


def report_shared_memory(known: Optional[Dict[str, Any]] = None) -> None:
    """X-shm: NUMA vs S-COMA; ``known`` is an ``shm`` record's ``sim``."""
    if known:
        lat = known["latency"]
    else:
        scoma = measure("scoma_read")
        lat = {"numa_read": measure("numa_read"),
               "scoma_cold": scoma["cold"], "scoma_warm": scoma["warm"]}
    print_table("Shared memory (ns)", ["mechanism", "access", "latency"], [
        ["NUMA", "remote read, every access", lat["numa_read"]],
        ["S-COMA", "cold miss", lat["scoma_cold"]],
        ["S-COMA", "warm hit", lat["scoma_warm"]],
    ])


def main(argv=None, records: Optional[Dict[str, Any]] = None) -> int:
    """CLI entry point.  ``records`` maps ``blocks``, ``mechanisms`` or
    ``shm`` to that bench's record ``sim``, whose numbers the report
    shows instead of measuring them again (the golden run passes the
    records its bench entries just wrote)."""
    records = records or {}
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
        report_block_transfer(sizes, plot=args.plot,
                              known=records.get("blocks"))
    if args.only in (None, "mechanisms"):
        report_mechanisms(records.get("mechanisms"))
    if args.only in (None, "shm"):
        report_shared_memory(records.get("shm"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
