"""One repetition of one workload, in a fresh process.

``run.py`` starts it as ``PYTHONPATH=src python3 perfbench/measure.py
<workload> <seed> <profile 0|1>``; it prints one JSON line.

:func:`run_once` builds the machine (timed as ``setup_s``), runs every
scenario phase to quiescence plus the merged snapshot (``run_s``).
Both are CPU seconds of this process: the simulator runs on one thread,
and CPU time leaves out the time a busy host keeps the process waiting.
It then checks the outputs and reduces everything to one JSON-ready dict:
exact per-op percentiles from the :class:`~workloads.OpLog`, a digest of
the wall-stripped snapshot, and the per-layer counts read from the
public ``metrics()`` snapshot.

With ``profile=True`` the two timed calls run under :mod:`cProfile`
and the result also carries host self time per ``repro`` package, split
into the setup and run phases.  The profiler data stays in memory; the
caller writes it out at the end.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import math
import os
import pstats
import re
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.harness import comparable
from repro.shard import ShardedMachine

from workloads import WORKLOADS, OpLog

_PKG_RE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: an actual sample, never interpolated."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def snapshot_digest(snapshot: Dict[str, Any]) -> str:
    """sha256 of the wall-stripped, shard-invariant snapshot."""
    core = comparable(json.loads(json.dumps(snapshot, default=repr)))
    blob = json.dumps(core, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _package_of(filename: str) -> Optional[str]:
    m = _PKG_RE.search(filename)
    return m.group(1) if m else None


def package_self_time(profile: cProfile.Profile) -> Dict[str, float]:
    """Self seconds per ``repro`` package.

    A function's own time goes to its package.  Time inside a function
    outside ``repro`` (a builtin, the stdlib) goes to the package of the
    ``repro`` function that called it, split by the profiler's per-caller
    totals, so e.g. ``heapq`` pushes count against the engine.
    """
    stats = pstats.Stats(profile).stats
    out: Dict[str, float] = {}
    for (filename, _line, _func), (_cc, _nc, tt, _ct, callers) in stats.items():
        pkg = _package_of(filename)
        if pkg is not None:
            out[pkg] = out.get(pkg, 0.0) + tt
            continue
        for (cfile, _cl, _cf), caller_row in callers.items():
            cpkg = _package_of(cfile)
            if cpkg is not None:
                out[cpkg] = out.get(cpkg, 0.0) + caller_row[2]
    return out


def _sum_counters(counters: Dict[str, int], pattern: str) -> int:
    rx = re.compile(pattern)
    return sum(v for k, v in counters.items() if rx.fullmatch(k))


def _acc(snapshot: Dict[str, Any], name: str, key: str) -> float:
    row = snapshot["accumulators"].get(name)
    return float(row[key]) if row and row.get("n") else 0.0


def layer_counts(snapshot: Dict[str, Any], windows: int) -> Dict[str, float]:
    """Simulated per-layer metrics from the public snapshot.

    Every value here repeats exactly for a fixed seed.  Percentiles read
    from snapshot accumulators are log-bucket midpoints (about 9%).
    """
    c = snapshot["counters"]
    occ = snapshot["occupancy"].values()
    ap = [o["ap"] for o in occ]
    sp = [o["sp"] for o in occ]
    d = snapshot["directory"]
    wasted = (d["dup_requests"] + d["stale_wbreq"] + d["stale_wbdata"]
              + d["stale_evicts"])
    served = {k: v for k, v in c.items()
              if re.fullmatch(r"traffic\.kv\.s\d+\.served", k)}
    total_served = sum(served.values())
    events = snapshot["sim"]["events_executed"]
    return {
        "sim.events": events,
        "shard.windows": windows,
        "shard.events_per_window": events / windows if windows else 0.0,
        # layer 0: aP and the message-passing library
        "node.ap.busy_frac.mean": sum(ap) / len(ap),
        "node.ap.busy_frac.max": max(ap),
        "mp.send_ns.p50": _acc(snapshot, "mp.basic.send_ns", "p50"),
        "mp.recv_ns.p50": _acc(snapshot, "mp.basic.recv_ns", "p50"),
        "mp.recv_ns.p99": _acc(snapshot, "mp.basic.recv_ns", "p99"),
        # node bus
        "bus.txns": _sum_counters(c, r"bus\d+\.txns"),
        "bus.bytes": _sum_counters(c, r"bus\d+\.bytes"),
        "bus.retries": _sum_counters(c, r"bus\d+\.retries"),
        # layer 1: sP firmware, coherence, collectives
        "niu.sp.busy_frac.mean": sum(sp) / len(sp),
        "niu.sp.busy_frac.max": max(sp),
        "traffic.kv.served.max_share": (max(served.values()) / total_served
                                        if total_served else 0.0),
        "coherence.invalidations_sent": d["invalidations_sent"],
        "coherence.forwards": d["forwards"],
        "coherence.ack_rounds": d["ack_rounds"],
        "coherence.dup_requests": d["dup_requests"],
        # a remote grant forwards the line once: forwards are the
        # directory's served requests, dup/stale drops its wasted ones
        "coherence.useful_ratio": (d["forwards"] / (d["forwards"] + wasted)
                                   if d["forwards"] + wasted else 0.0),
        "collectives.coll_completed": _sum_counters(
            c, r"sp\d+\.coll_completed"),
        "mpi.allreduce_ns.p50": _acc(snapshot, "mpi.allreduce_ns", "p50"),
        # layer 2: CTRL NIU queues
        "niu.ctrl.msgs_sent": _sum_counters(c, r"ctrl\d+\.msgs_sent"),
        "niu.ctrl.msgs_delivered": _sum_counters(c, r"ctrl\d+\.msgs_delivered"),
        "niu.ctrl.sync_injects": _sum_counters(c, r"ctrl\d+\.sync_injects"),
        # layer 3: Arctic network
        "net.latency_ns.p50": _acc(snapshot, "net.latency_ns", "p50"),
        "net.latency_ns.p99": _acc(snapshot, "net.latency_ns", "p99"),
        "net.combine_hits": _sum_counters(c, r"sw[\d.]+\.combine_hits"),
        "net.combine_folds": _sum_counters(c, r"sw[\d.]+\.combine_folds"),
        "net.decombines": _sum_counters(c, r"sw[\d.]+\.decombines"),
    }


def _timed(fn, prof: Optional[cProfile.Profile]):
    """Call ``fn`` (under ``prof`` when given); returns its result and the
    CPU seconds it took."""
    t0 = time.process_time()
    if prof is None:
        out = fn()
    else:
        with prof:
            out = fn()
    return out, time.process_time() - t0


def run_once(workload_name: str, seed: int, profile: bool = False
             ) -> Dict[str, Any]:
    """Set up and run one workload once; see the module docstring."""
    workload = WORKLOADS[workload_name]
    log = OpLog()
    scenario = workload.scenario(seed, log)
    config = workload.config()
    scenario.prepare(config)
    setup_prof, run_prof = ((cProfile.Profile(), cProfile.Profile())
                            if profile else (None, None))
    machine, setup_s = _timed(
        lambda: ShardedMachine(config, scenario, "inline"), setup_prof)
    run, run_s = _timed(machine.run, run_prof)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    snapshot = run.snapshot
    problems = workload.check(run.results, log)
    samples = sorted(log.latency_ns)
    attempted = workload.expected_ops()
    failed = max(log.failed + attempted - len(samples), 0)
    slo = workload.slo_ns
    within = (sum(1 for s in samples if s <= slo) if slo is not None
              else len(samples))
    result: Dict[str, Any] = {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "digest": snapshot_digest(snapshot),
        "host": {
            "setup_s": setup_s,
            "run_s": run_s,
            "peak_rss_mb": rss_kb / 1024.0,
        },
        "sim": {
            "op_n": len(samples),
            "op_p50_ns": percentile(samples, 0.50) if samples else 0.0,
            "op_p99_ns": percentile(samples, 0.99) if samples else 0.0,
            "makespan_ns": snapshot["now_ns"],
            # within the SLO (or, with no SLO, completed correctly) over
            # attempted; a failed op never counts as good
            "goodput": max(within - log.failed, 0) / attempted,
            "failed_frac": failed / attempted,
        },
        "layers": layer_counts(snapshot, run.windows),
    }
    if profile:
        result["profile"] = {
            "setup": package_self_time(setup_prof),
            "run": package_self_time(run_prof),
            "top": _top_functions(run_prof),
        }
    return result


def _top_functions(profile: cProfile.Profile, n: int = 40
                   ) -> List[Dict[str, Any]]:
    """The run phase's heaviest functions by self time (for the trace
    file only)."""
    rows = []
    for (filename, line, func), (_cc, nc, tt, ct, _callers) in \
            pstats.Stats(profile).stats.items():
        rows.append({"function": f"{os.path.basename(filename)}:{line}"
                                 f"({func})",
                     "package": _package_of(filename),
                     "calls": nc, "self_s": tt, "cum_s": ct})
    rows.sort(key=lambda r: -r["self_s"])
    return rows[:n]


if __name__ == "__main__":
    name, seed, profile = sys.argv[1:]
    print(json.dumps(run_once(name, int(seed), profile=profile == "1")))
