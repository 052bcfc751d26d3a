"""Benchmark harness: sweeps, table printing, claims, the bench record.

Shared by the ``benchmarks/`` targets so that every table and figure is
regenerated through one code path: every data point runs on a fresh
machine (most are registered scenarios, :func:`repro.scenarios.measure`),
the harness prints the paper-style rows, :func:`check_claims` turns the
bench's claims into its exit status, and :func:`write_record` writes
the one record.

Sweeps fan out across processes through :func:`run_sweep`: every data
point is an independent, fully seeded simulation, so the grid is
embarrassingly parallel and the merged output is byte-identical for any
job count (see the function's determinism contract).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

import repro
from repro.obs.snapshot import comparable
from repro.scenarios import run_scenario, scenario

#: the size axis used for the Figure 3/4 sweeps.
FIG_SIZES = [256, 1024, 4096, 16384, 65536]


def fresh_machine(n_nodes: int = 2, **overrides) -> "repro.StarTVoyager":
    """One standard-configuration machine (fresh per data point)."""
    return repro.StarTVoyager(repro.default_config(n_nodes=n_nodes, **overrides))


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


def check_claims(claims: Dict[str, bool]) -> int:
    """A bench's gate: print ``FAIL: <claim>`` for every claim that does
    not hold; the exit status (1 when any failed, else 0)."""
    failed = [claim for claim, held in claims.items() if not held]
    for claim in failed:
        print(f"FAIL: {claim}", file=sys.stderr)
    return 1 if failed else 0


#: the one bench document schema (see :func:`write_record`).
RECORD_SCHEMA = "startv.bench"


def _provenance() -> Dict[str, Any]:
    """Where a record was measured: commit, CPU count, Python version."""
    import platform
    import subprocess

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"commit": commit, "cpus": os.cpu_count(),
            "python": platform.python_version()}


def write_record(path: str, benchmark: str, params: Dict[str, Any],
                 sim: Dict[str, Any], wall: Dict[str, Any]) -> str:
    """Write one benchmark run as a ``startv.bench`` v1 record.

    ``sim`` holds the wall-free results the tables and gates read (every
    snapshot in it already wall-stripped); ``wall`` holds every
    wall-clock field; ``provenance`` is added here.  So
    :func:`strip_wall` of two records of the same run compares their
    simulated results only.  Parent directories are created as needed;
    returns ``path``.
    """
    record = {
        "schema": RECORD_SCHEMA,
        "schema_version": 1,
        "benchmark": benchmark,
        "params": params,
        "sim": sim,
        "wall": wall,
        "provenance": _provenance(),
    }
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    text = json.dumps(record, indent=2, sort_keys=True, default=_jsonable)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


def _jsonable(value: Any) -> Any:
    """JSON form of a scenario result: a dataclass, or raw bytes as their
    ``repr``.  Any other type raises, so no unordered set or
    address-bearing ``repr`` can slip a run-dependent value into a
    hashed record."""
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, bytes):
        return str(value)
    raise TypeError(f"no JSON form for {type(value).__name__} in a record")


def strip_wall(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Drop the wall-clock parts, in place: a record's ``wall`` and
    ``provenance``, or a metrics snapshot's ``sim.wall``."""
    if doc.get("schema") == RECORD_SCHEMA:
        doc.pop("wall", None)
        doc.pop("provenance", None)
        return doc
    return comparable(doc)


# ----------------------------------------------------------------------
# deterministic parallel sweep runner
# ----------------------------------------------------------------------
#
# Every sweep point builds its own machine from a picklable spec and
# runs a fully seeded simulation, so points are independent and the grid
# is embarrassingly parallel.  Determinism contract: ``run_sweep``
# returns results in point order for *any* ``jobs`` value, and point
# workers strip the one nondeterministic part of a metrics snapshot
# (``sim.wall``, the wall-clock gauges, via :func:`strip_wall`) — the
# merged document is byte-identical whether the grid ran serially or
# across N processes.


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
    """One §6 block-transfer point: ``(approach, size)`` -> result row.

    The row carries the transfer's latencies, bandwidth and per-processor
    occupancy plus the machine's full (wall-stripped) metrics snapshot,
    so the bench gets the schema-versioned measurement without a second
    run.
    """
    approach, size = spec
    run = run_scenario(scenario("block_transfer", approach=approach,
                                size=size), n_nodes=2)
    result = run.results[0]
    snapshot = strip_wall(run.snapshot)
    del snapshot["config"]
    return {
        "approach": approach,
        "size_bytes": size,
        "notify_latency_ns": result.notify_latency_ns,
        "data_ready_latency_ns": result.data_ready_latency_ns,
        "bandwidth_mb_s": result.bandwidth_mb_s,
        "verified": result.verified,
        "occupancy": result.occupancy_row(),
        "metrics": snapshot,
    }
