"""Benchmark harness: sweeps, mechanism microbenchmarks, table printing.

Shared by the ``benchmarks/`` targets so that every table and figure is
regenerated through one code path: build a fresh machine per data point,
run the workload, extract the simulated metrics, print the paper-style
rows (and return them for programmatic checks).

Sweeps fan out across processes through :func:`run_sweep`: every data
point is an independent, fully seeded simulation, so the grid is
embarrassingly parallel and the merged output is byte-identical for any
job count (see the function's determinism contract).
"""

from __future__ import annotations

import json
import multiprocessing
import os
from typing import Any, Callable, Dict, List, Sequence, Tuple

import repro
from repro.core.blocktransfer import BlockTransferExperiment, TransferResult
from repro.lib.mpi import MiniMPI
from repro.mp.basic import BasicPort
from repro.mp.express import ExpressPort
from repro.niu.niu import EXPRESS_RX_LOGICAL, vdst_for
from repro.obs.snapshot import metrics_snapshot

#: the size axis used for the Figure 3/4 sweeps.
FIG_SIZES = [256, 1024, 4096, 16384, 65536]


def fresh_machine(n_nodes: int = 2, **overrides) -> "repro.StarTVoyager":
    """One standard-configuration machine (fresh per data point)."""
    return repro.StarTVoyager(repro.default_config(n_nodes=n_nodes, **overrides))


def run_block_transfer(approach: int, size: int) -> TransferResult:
    """One Figure-3/4 data point on a fresh two-node machine."""
    machine = fresh_machine(2)
    return BlockTransferExperiment(machine).run(approach, size)


def block_transfer_sweep(approaches: Sequence[int],
                         sizes: Sequence[int] = FIG_SIZES
                         ) -> List[TransferResult]:
    """The full (approach x size) grid."""
    return [run_block_transfer(a, s) for a in approaches for s in sizes]


def print_table(title: str, header: Sequence[str],
                rows: Sequence[Sequence[object]]) -> None:
    """Fixed-width table, the harness's one output format."""
    widths = [max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
              for i, h in enumerate(header)]
    print(f"\n== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))


def _fmt(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def emit_json(path: str, payload: object) -> str:
    """Write one benchmark's results as a JSON document; returns the path.

    The machine-readable twin of :func:`print_table` — plotting scripts
    consume these instead of scraping stdout.  Parent directories are
    created as needed.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ----------------------------------------------------------------------
# deterministic parallel sweep runner
# ----------------------------------------------------------------------
#
# Every sweep point builds its own machine from a picklable spec and
# runs a fully seeded simulation, so points are independent and the grid
# is embarrassingly parallel.  Determinism contract: ``run_sweep``
# returns results in point order for *any* ``jobs`` value, and point
# workers strip the one nondeterministic part of a metrics snapshot
# (``sim.wall``, the wall-clock gauges) — the merged document is
# byte-identical whether the grid ran serially or across N processes.

def strip_wall(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Drop the wall-clock gauges from a metrics snapshot, in place.

    ``sim.wall`` (host seconds, events/second) varies run to run with
    machine load; everything else in the snapshot is simulated and
    deterministic.  Sweep workers call this so merged sweep documents
    compare byte-for-byte across job counts and hosts.
    """
    sim = snapshot.get("sim")
    if isinstance(sim, dict):
        sim.pop("wall", None)
    return snapshot


#: a snapshot's deterministic core, in place: everything but ``sim.wall``
#: is byte-identical at any ``--jobs`` value.
comparable = strip_wall


def run_sweep(worker: Callable[[Any], Any], points: Sequence[Any],
              jobs: int = 1) -> List[Any]:
    """Run ``worker(point)`` for every point, fanning out over processes.

    ``worker`` must be a module-level (picklable) function that builds
    everything it needs from its point — no shared machine, no closure
    state.  Results come back in ``points`` order regardless of ``jobs``
    (``Pool.map`` preserves input order), so the merged output of a
    deterministic worker is identical for ``jobs=1`` and ``jobs=N``.

    ``jobs <= 1`` runs inline in this process — same code path per
    point, no pool overhead, and usable under debuggers.
    """
    points = list(points)
    if jobs <= 1 or len(points) <= 1:
        return [worker(p) for p in points]
    # fork (where available) inherits the driver's sys.path, which keeps
    # directly-executed benchmark scripts workable; spawn is the fallback
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "spawn"
    ctx = multiprocessing.get_context(method)
    with ctx.Pool(processes=min(jobs, len(points))) as pool:
        return pool.map(worker, points, chunksize=1)


def block_transfer_point(spec: Tuple[int, int]) -> Dict[str, Any]:
    """One Figure-3/4 sweep point: ``(approach, size)`` -> result row.

    The row carries the transfer's latencies plus the machine's full
    (wall-stripped) metrics snapshot, so figure scripts get the
    schema-versioned measurement without a second run.
    """
    approach, size = spec
    machine = fresh_machine(2)
    result = BlockTransferExperiment(machine).run(approach, size)
    return {
        "approach": approach,
        "size_bytes": size,
        "notify_latency_ns": result.notify_latency_ns,
        "data_ready_latency_ns": result.data_ready_latency_ns,
        "bandwidth_mb_s": result.bandwidth_mb_s,
        "verified": result.verified,
        "metrics": strip_wall(metrics_snapshot(machine,
                                               include_config=False)),
    }


def block_transfer_metrics_sweep(approaches: Sequence[int],
                                 sizes: Sequence[int] = FIG_SIZES,
                                 jobs: int = 1) -> List[Dict[str, Any]]:
    """The (approach x size) grid with per-point metrics snapshots."""
    specs = [(a, s) for a in approaches for s in sizes]
    return run_sweep(block_transfer_point, specs, jobs=jobs)


def collective_point(spec: Tuple[str, int, str, int]) -> Dict[str, Any]:
    """One collective-scaling point: ``(name, n_nodes, algo, repeats)``."""
    name, n_nodes, algo, repeats = spec
    return {
        "collective": name,
        "n_nodes": n_nodes,
        "algo": algo,
        "latency_ns": collective_latency(name, n_nodes, algo,
                                         repeats=repeats),
    }


def collective_metrics_sweep(names: Sequence[str], nodes: Sequence[int],
                             algos: Sequence[str], repeats: int = 2,
                             jobs: int = 1) -> List[Dict[str, Any]]:
    """The (collective x algo x node-count) grid, in spec order."""
    specs = [(name, n, algo, repeats)
             for name in names for algo in algos for n in nodes]
    return run_sweep(collective_point, specs, jobs=jobs)


# ----------------------------------------------------------------------
# mechanism microbenchmarks (one-way latency / message rate)
# ----------------------------------------------------------------------

def basic_oneway_latency(payload_bytes: int = 8, repeats: int = 20) -> float:
    """Mean one-way Basic-message latency in ns (ping-pong halved)."""
    machine = fresh_machine(2)
    p0 = BasicPort(machine.node(0), 0, 0)
    p1 = BasicPort(machine.node(1), 0, 0)
    payload = bytes(payload_bytes)

    def ping(api):
        for _ in range(repeats):
            yield from p0.send(api, vdst_for(1, 0), payload)
            yield from p0.recv(api)

    def pong(api):
        for _ in range(repeats):
            yield from p1.recv(api)
            yield from p1.send(api, vdst_for(0, 0), payload)

    t0 = machine.now
    a = machine.spawn(0, ping)
    b = machine.spawn(1, pong)
    machine.run_all([a, b])
    return (machine.now - t0) / (2 * repeats)


def express_oneway_latency(repeats: int = 20) -> float:
    """Mean one-way Express-message latency in ns."""
    machine = fresh_machine(2)
    e0, e1 = ExpressPort(machine.node(0)), ExpressPort(machine.node(1))

    def ping(api):
        for _ in range(repeats):
            yield from e0.send(api, vdst_for(1, EXPRESS_RX_LOGICAL), b"01234")
            yield from e0.recv_blocking(api)

    def pong(api):
        for _ in range(repeats):
            yield from e1.recv_blocking(api)
            yield from e1.send(api, vdst_for(0, EXPRESS_RX_LOGICAL), b"43210")

    t0 = machine.now
    a = machine.spawn(0, ping)
    b = machine.spawn(1, pong)
    machine.run_all([a, b])
    return (machine.now - t0) / (2 * repeats)


def collective_latency(name: str, n_nodes: int, algo: str = "flat",
                       repeats: int = 4, payload_bytes: int = 32,
                       **mpi_kwargs) -> float:
    """Mean completion time (ns) of one collective on a fresh machine.

    ``name`` is ``"barrier"``, ``"bcast"`` or ``"allreduce"``; ``algo``
    selects the :class:`~repro.lib.mpi.MiniMPI` collective family
    (``"flat"`` / ``"tree"`` / ``"nic"``).  Back-to-back ``repeats``
    amortize start-up skew.
    """
    machine = fresh_machine(n_nodes)
    mpi = MiniMPI(machine, algo=algo, **mpi_kwargs)
    payload = bytes(payload_bytes)

    def worker(api, rank):
        comm = mpi.rank(rank)
        for _ in range(repeats):
            if name == "barrier":
                yield from comm.barrier(api)
            elif name == "bcast":
                yield from comm.bcast(api, payload if rank == 0 else None)
            elif name == "allreduce":
                yield from comm.allreduce(api, rank + 1, op="sum")
            else:
                raise ValueError(f"unknown collective {name!r}")

    t0 = machine.now
    procs = [machine.spawn(n, worker, n) for n in range(n_nodes)]
    machine.run_all(procs, limit=1e10)
    return (machine.now - t0) / repeats


def basic_stream_rate(payload_bytes: int = 64, count: int = 200
                      ) -> Dict[str, float]:
    """One-directional Basic-message stream: msgs/s and MB/s."""
    machine = fresh_machine(2)
    p0 = BasicPort(machine.node(0), 0, 0)
    p1 = BasicPort(machine.node(1), 0, 0)
    payload = bytes(payload_bytes)

    def producer(api):
        for _ in range(count):
            yield from p0.send(api, vdst_for(1, 0), payload)

    def consumer(api):
        for _ in range(count):
            yield from p1.recv(api)

    t0 = machine.now
    a = machine.spawn(0, producer)
    b = machine.spawn(1, consumer)
    machine.run_all([a, b])
    elapsed = machine.now - t0
    return {
        "msgs_per_s": count / (elapsed / 1e9),
        "mb_per_s": (count * payload_bytes) / elapsed * 1000.0,
        "elapsed_ns": elapsed,
    }


def mpi_pingpong_latency(payload_bytes: int = 64, repeats: int = 10) -> float:
    """Mean one-way mini-MPI latency (library overhead included)."""
    machine = fresh_machine(2)
    mpi = MiniMPI(machine)
    payload = bytes(payload_bytes)

    def ping(api):
        r = mpi.rank(0)
        for _ in range(repeats):
            yield from r.send(api, 1, payload)
            yield from r.recv(api, src=1)

    def pong(api):
        r = mpi.rank(1)
        for _ in range(repeats):
            yield from r.recv(api, src=0)
            yield from r.send(api, 0, payload)

    t0 = machine.now
    a = machine.spawn(0, ping)
    b = machine.spawn(1, pong)
    machine.run_all([a, b])
    return (machine.now - t0) / (2 * repeats)
