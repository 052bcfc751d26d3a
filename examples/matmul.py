#!/usr/bin/env python
"""Distributed matrix multiply: bulk DMA + mini-MPI coordination.

C = A x B over four nodes.  Node 0 owns A and B; it DMAs each worker its
row block of A and the whole of B (hardware block transfer — the bulk
path §6 motivates), workers compute their block of C on the aP (with
modeled FLOP time) and send it to node 0 with mini-MPI `send`, where
`recv` collects the blocks.  The example shows the message-passing and
DMA mechanisms composing into a real kernel: a control plane of small
messages over a data plane of block transfers.

Run:  python examples/matmul.py
"""

import repro
from repro.lib.mpi import MiniMPI
from repro.mp.basic import BasicPort
from repro.mp.dma import DmaNotifier, dma_write

NODES = 4
N = 16  # NxN matrices of one-byte values (mod-256 arithmetic)
ROWS_PER_NODE = N // NODES
A_ADDR = 0x18000
B_ADDR = 0x19000
BLOCK_ADDR = 0x30000  # worker-side landing area
FLOPS_PER_MAC = 3  # modeled multiply-accumulate cost in instructions


def matrix_bytes(values):
    return bytes(v & 0xFF for row in values for v in row)


def main() -> None:
    machine = repro.StarTVoyager(repro.default_config(n_nodes=NODES))
    mpi = MiniMPI(machine)
    dma_port = BasicPort(machine.node(0), 1, 1)
    notifiers = [DmaNotifier(machine.node(n)) for n in range(NODES)]

    a = [[(i * 3 + j) % 251 for j in range(N)] for i in range(N)]
    b = [[(i * 7 + 2 * j) % 251 for j in range(N)] for i in range(N)]
    machine.node(0).dram.poke(A_ADDR, matrix_bytes(a))
    machine.node(0).dram.poke(B_ADDR, matrix_bytes(b))
    expected = [
        [sum(a[i][k] * b[k][j] for k in range(N)) & 0xFF for j in range(N)]
        for i in range(N)
    ]

    def coordinator(api):
        comm = mpi.rank(0)
        block = ROWS_PER_NODE * N
        # ship each worker its A rows and all of B, by hardware DMA
        for worker in range(1, NODES):
            yield from dma_write(api, dma_port, worker,
                                 A_ADDR + worker * block, BLOCK_ADDR, block)
            yield from dma_write(api, dma_port, worker,
                                 B_ADDR, BLOCK_ADDR + block, N * N)
        # compute the local block while the transfers stream
        local = yield from compute_block(api, 0, A_ADDR, B_ADDR)
        # gather everyone's block
        blocks = [None] * NODES
        blocks[0] = local
        for _ in range(NODES - 1):
            src, _tag, data = yield from comm.recv(api, tag=1)
            blocks[src] = data
        return b"".join(blocks)  # type: ignore[arg-type]

    def worker(api, rank):
        comm = mpi.rank(rank)
        # two DMA completions: the A block, then B
        yield from notifiers[rank].wait(api)
        yield from notifiers[rank].wait(api)
        block = ROWS_PER_NODE * N
        out = yield from compute_block(api, rank, BLOCK_ADDR,
                                       BLOCK_ADDR + block)
        yield from comm.send(api, 0, out, tag=1)

    def compute_block(api, rank, a_addr, b_addr):
        """Multiply this node's A rows against B (timed loads + FLOPs)."""
        a_rows = []
        for i in range(ROWS_PER_NODE):
            row = yield from api.load(a_addr + i * N, N)
            a_rows.append(row)
        b_cols = []
        b_flat = yield from api.load(b_addr, N * N)
        for j in range(N):
            b_cols.append(bytes(b_flat[k * N + j] for k in range(N)))
        out = bytearray()
        for row in a_rows:
            for col in b_cols:
                yield from api.compute(N * FLOPS_PER_MAC)
                out.append(sum(x * y for x, y in zip(row, col)) & 0xFF)
        return bytes(out)

    procs = [machine.spawn(0, coordinator)] + [
        machine.spawn(n, worker, n) for n in range(1, NODES)
    ]
    results = machine.run_all(procs)
    got = results[0]
    want = matrix_bytes(expected)
    print(f"{N}x{N} matmul over {NODES} nodes: "
          f"{'CORRECT' if got == want else 'WRONG'}")
    print(f"  simulated time: {machine.now / 1000:.1f} us")
    metrics = machine.metrics()
    occ = metrics["occupancy"]["1"]
    print(f"  worker 1 occupancy: aP {occ['ap']:.2f}, sP {occ['sp']:.3f}")
    blocks = sum(int(v) for k, v in metrics["counters"].items()
                 if "block_txs" in k)
    print(f"  hardware block transfers used: {blocks}")


if __name__ == "__main__":
    main()
