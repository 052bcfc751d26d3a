"""Experiment X-mpi — library-layer scaling: mini-MPI collectives.

Layer 0 exists so applications never touch the NIU directly; its cost
must stay proportional to the point-to-point messages it issues.  These
benches measure ping-pong vs payload (fragmentation) and collective
completion time vs node count on the linear-algorithm collectives.
"""

from repro.bench import check_claims, print_table, write_record
from repro.scenarios import measure

HEADER = ["operation", "scale", "us"]
#: one fragment carries 78 B; 312 B is four.
PAYLOADS = (8, 78, 256, 312, 1024)
NODES = (2, 4, 8)
COLLECTIVES = ("barrier", "bcast", "allreduce")


def run(args):
    pingpong = {n: measure("mpi_pingpong", payload_bytes=n) / 1000.0
                for n in PAYLOADS}
    collectives = {name: {n: measure("collective", n, collective=name,
                                     algo="flat", repeats=1,
                                     payload_bytes=64) / 1000.0
                          for n in NODES}
                   for name in COLLECTIVES}
    rows = [["ping-pong one-way", f"{n} B", us] for n, us in pingpong.items()]
    rows += [[name, f"{n} nodes", collectives[name][n]]
             for n in NODES for name in COLLECTIVES]
    print_table("mini-MPI scaling", HEADER, rows)
    path = write_record(args.json, "mpi", {"unit": "us"},
                        {"pingpong_us": pingpong,
                         "flat_collectives_us": collectives}, {})
    print(f"record: {path}")
    return check_claims({
        # above one fragment latency grows roughly linearly with the
        # fragment count, not worse
        "ping-pong: 4 fragments (312 B) < 6 x one (78 B)":
            pingpong[312] < 6 * pingpong[78],
        # the linear collectives scale ~linearly in node count (the
        # simple algorithms' expected cost, not a platform pathology)
        "flat barrier: 8 nodes < 8 x 2 nodes":
            collectives["barrier"][8] < 8 * collectives["barrier"][2],
    })


BENCH = {
    "summary": "X-mpi: mini-MPI ping-pong fragmentation and flat "
               "collective scaling",
    "flags": None,
    "run": run,
}
