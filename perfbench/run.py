"""The repository benchmark: one workload, measured end to end.

Run from the repository root::

    python3 perfbench/run.py --workload kv_zipf16 --seed 1 --seconds 20 --trace 0

Every repetition runs in a fresh child process (so ``setup_s`` and
``peak_rss_mb`` belong to that workload alone) on inputs generated from
``--seed``.  Repetitions continue until ``--seconds`` have passed, with
at least two; host metrics are the median over them.  Simulated
metrics and the snapshot digest must be identical in every repetition,
and every operation must complete correctly, or the run fails.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced and then once under :mod:`cProfile`, prints the
per-layer metrics (host self time per ``repro`` package, the tracing
overhead, simulated per-layer counts) and writes the profile summary to
``.perfbench-out/``.  The last line of output is always one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is non-zero if any check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join("src", "repro")
OUT_DIR = ".perfbench-out"
MIN_REPS = 2
#: every run ends well inside the three minutes a run may take.
DEADLINE_S = 170.0

HOST_METRICS = ("setup_s", "run_s", "peak_rss_mb")
#: ``src/repro`` packages whose host self time the traced run reports.
PACKAGES = ("sim", "shard", "core", "node", "bus", "mem", "niu", "firmware",
            "net", "mp", "lib", "coherence", "shm", "sync", "collectives",
            "traffic", "obs", "common")


class BenchError(Exception):
    """A repetition that crashed or ran out of time."""


def provenance() -> Dict[str, Any]:
    """Commit (when the checkout is a git repository), a digest of the
    simulator sources, CPU count and Python version."""
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"commit": commit, "src_sha256": h.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version()}


def run_child(workload: str, seed: int, profile: bool, deadline: float
              ) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; returns its result dict."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), workload,
           str(seed), str(int(profile))]
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a repetition could start")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"repetition of {workload} did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"repetition of {workload} crashed:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_reps(reps: List[Dict[str, Any]]) -> List[str]:
    """Problems found: an incorrect operation in any repetition, or two
    repetitions of the one seed that simulated differently."""
    problems = [p for rep in reps for p in rep["problems"]]
    failed = sum(rep["failed"] for rep in reps)
    if failed:
        problems.append(f"{failed} operations failed")
    first = reps[0]
    for key in ("digest", "sim", "layers", "attempted"):
        if any(rep[key] != first[key] for rep in reps[1:]):
            problems.append(f"nondeterministic: {key} differs between "
                            f"repetitions of one seed")
    return problems


def median_host(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    return {k: statistics.median(r["host"][k] for r in reps)
            for k in HOST_METRICS}


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    values: Dict[str, float] = dict(median_host(reps))
    sim = reps[0]["sim"]
    for key in ("op_p50_ns", "op_p99_ns", "makespan_ns", "goodput"):
        values[key] = sim[key]
    return values


def per_layer(untraced: List[Dict[str, Any]], traced: Dict[str, Any]
              ) -> Dict[str, float]:
    values: Dict[str, float] = {}
    prof = traced["profile"]
    for pkg in PACKAGES:
        setup = prof["setup"].get(pkg, 0.0)
        run = prof["run"].get(pkg, 0.0)
        values[f"host.{pkg}.self_s"] = setup + run
        values[f"host.setup.{pkg}.self_s"] = setup
        values[f"host.run.{pkg}.self_s"] = run
    host = median_host(untraced)
    values["host.trace_overhead"] = traced["host"]["run_s"] / host["run_s"]
    layers = untraced[0]["layers"]
    values["sim.events_per_s"] = layers["sim.events"] / host["run_s"]
    values.update(layers)
    return values


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workload names and the metrics' units."""
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit for the metrics this mode must report."""
    return {m["name"]: m["unit"]
            for m in load_spec()["per_layer" if trace else "end_to_end"]}


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> Dict[str, Any]:
    """Run the repetitions; returns them with the metrics and problems."""
    deadline = time.monotonic() + DEADLINE_S
    start = time.monotonic()
    budget = seconds / 2 if trace else seconds
    reps: List[Dict[str, Any]] = []
    while (len(reps) < (1 if trace else MIN_REPS)
           or time.monotonic() - start < budget):
        reps.append(run_child(workload, seed, False, deadline))
    traced = run_child(workload, seed, True, deadline) if trace else None
    values = per_layer(reps, traced) if trace else end_to_end(reps)
    units = declared_units(trace)
    problems = check_reps(reps + ([traced] if traced else []))
    problems += [f"metric {name} was not measured" for name in units
                 if name not in values]
    return {"reps": reps, "traced": traced, "units": units,
            "values": {k: v for k, v in values.items() if k in units},
            "problems": problems}


def report(workload: str, seed: int, result: Dict[str, Any]) -> None:
    """The human-readable lines that precede the JSON result."""
    reps = result["reps"]
    sim = reps[0]["sim"]
    print(f"workload {workload}  seed {seed}  repetitions {len(reps)}"
          f"  digest {reps[0]['digest'][:16]}")
    notes = {
        "op_p50_ns": f"exact, n={sim['op_n']}",
        "op_p99_ns": f"exact, n={sim['op_n']}",
    }
    for key in HOST_METRICS:
        notes[key] = "median of " + " ".join(
            f"{rep['host'][key]:.4g}" for rep in reps)
    values = dict(result["values"], failed_frac=sim["failed_frac"])
    units = dict(result["units"], failed_frac="fraction")
    for name, value in values.items():
        note = notes.get(name, "")
        if name.endswith((".p50", ".p99")):
            note = "log-bucket midpoint"
        print(f"  {name:36s} {value:>16.6g} {units[name]:9s} {note}")


def write_trace(workload: str, seed: int, prov: Dict[str, Any],
                result: Dict[str, Any]) -> str:
    """Write the traced run's profile summary; returns the path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "workload": workload, "seed": seed,
                   "per_layer": result["values"],
                   "profile": result["traced"]["profile"]},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def parse_args(argv: List[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in load_spec()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(SRC):
        print(f"error: no simulator sources at ./{SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    prov = provenance()
    print("provenance " + json.dumps(prov, sort_keys=True))
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    report(args.workload, args.seed, result)
    if args.trace:
        print("trace written to "
              + write_trace(args.workload, args.seed, prov, result))
    for problem in result["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    reps = result["reps"]
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": v, "unit": result["units"][k]}
                    for k, v in result["values"].items()},
    }))
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
