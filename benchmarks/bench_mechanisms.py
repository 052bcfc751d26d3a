"""Experiment X-mp — §5 mechanism microbenchmarks.

One-way latency and streaming rate of the default message-passing
mechanisms: Express (one store / one load), Basic, TagOn-augmented
Basic, and the mini-MPI library on top.  The paper presents these
mechanisms qualitatively; the expected shape is Express < Basic < MPI
for latency, and TagOn raising Basic's per-message data capacity
at marginal cost.
"""

from repro.bench import check_claims, print_table, write_record
from repro.scenarios import measure

HEADER = ["mechanism", "metric", "value"]


def run(args):
    express = measure("express")
    basic = {n: measure("basic", payload_bytes=n) for n in (8, 64, 88)}
    tagon = measure("tagon")
    stream = measure("basic_stream")
    mpi = measure("mpi_pingpong")
    print_table("Mechanism microbenchmarks", HEADER, [
        ["express", "one-way ns (5 B)", express],
        *[["basic", f"one-way ns ({n} B)", ns] for n, ns in basic.items()],
        ["basic+tagon", "per-message ns (83 B)", tagon],
        ["basic", "stream MB/s (64 B msgs)", stream["mb_per_s"]],
        ["basic", "stream msgs/s", stream["msgs_per_s"]],
        ["mini-MPI", "one-way ns (64 B)", mpi],
    ])
    path = write_record(args.json, "mechanisms", {},
                        {"express_ns": express, "basic_ns": basic,
                         "tagon_ns_per_msg": tagon, "basic_stream": stream,
                         "mpi_ns": mpi}, {})
    print(f"record: {path}")
    return check_claims({
        "express one-way < 2000 ns": express < 2_000,
        "basic one-way (8 B) < 10000 ns": basic[8] < 10_000,
        "basic one-way (88 B) < 10000 ns": basic[88] < 10_000,
        "express < basic (8 B)": express < basic[8],
        # 83 bytes per message must cost far less than 11 separate sends
        "TagOn 83 B per message < 5 x basic (8 B)": tagon < 5 * basic[8],
        "basic stream > 30 MB/s": stream["mb_per_s"] > 30,
        # library layering costs something, but not an order of magnitude
        "mini-MPI (64 B) < 10 x basic (64 B)": mpi < 10 * basic[64],
    })


BENCH = {
    "summary": "X-mp: Express, Basic, TagOn and mini-MPI latency and "
               "stream rate",
    "flags": None,
    "run": run,
}
