#!/usr/bin/env python
"""Mini-MPI on StarT-Voyager: ping-pong, broadcast, and allreduce.

The paper's layer-0 story: "we will provide an MPI library that presents
the usual MPI interface to the user code but uses the underlying NIU
support for the actual communication."  This example measures the
library's ping-pong latency across payload sizes (fragmentation above
78 bytes) and demonstrates the collectives on four nodes.

Run:  python examples/mpi_pingpong.py
"""

import repro
from repro.lib.mpi import MiniMPI

REPEATS = 10


def pingpong(payload_bytes: int) -> float:
    machine = repro.StarTVoyager(repro.default_config(n_nodes=2))
    mpi = MiniMPI(machine)
    payload = bytes(payload_bytes)

    def ping(api):
        comm = mpi.rank(0)
        for _ in range(REPEATS):
            yield from comm.send(api, 1, payload)
            yield from comm.recv(api, src=1)

    def pong(api):
        comm = mpi.rank(1)
        for _ in range(REPEATS):
            _src, _tag, data = yield from comm.recv(api, src=0)
            yield from comm.send(api, 0, data)

    t0 = machine.now
    machine.run_all([machine.spawn(0, ping), machine.spawn(1, pong)])
    return (machine.now - t0) / (2 * REPEATS)


def collectives() -> None:
    machine = repro.StarTVoyager(repro.default_config(n_nodes=4))
    mpi = MiniMPI(machine)

    def worker(api, rank: int):
        comm = mpi.rank(rank)
        greeting = yield from comm.bcast(
            api, b"hello from root" if rank == 0 else None)
        total = yield from comm.allreduce(api, (rank + 1) ** 2)
        yield from comm.barrier(api)
        return greeting.decode(), total

    procs = [machine.spawn(n, worker, n) for n in range(4)]
    results = machine.run_all(procs)
    print("collectives on 4 nodes:")
    for rank, (greeting, total) in enumerate(results):
        print(f"  rank {rank}: bcast={greeting!r} allreduce(sum of squares)={total}")


def main() -> None:
    print("mini-MPI ping-pong one-way latency:")
    for size in (8, 64, 256, 1024):
        latency = pingpong(size)
        print(f"  {size:5d} B: {latency / 1000:6.2f} us")
    print()
    collectives()


if __name__ == "__main__":
    main()
