"""``python -m repro.bench golden`` — one gate over every golden output.

Runs a fixed table of entries (:func:`entries`), each with its own gate:

* every registered scenario (:func:`repro.scenarios.scenario_names`),
  built with its ``explore_params`` at its ``min_nodes`` and held to
  its own ``check``;
* every ``benchmarks/bench_*.py`` but ``engine`` (wall-clock only; CI's
  bench-smoke job gates its one simulated count), at smoke size and, for
  the fault, shm, traffic and sync benches, under their sanitizer sets,
  each held to its exit code, i.e. its own claims.  The 64-node ``sync``
  points must also equal the committed ``BENCH_sync.json``'s;
* ``python -m repro.bench.report --plot``, which rewrites
  ``REPORT.txt`` from the ``blocks``, ``mechanisms`` and ``shm``
  records, so no point is measured twice;
* two smoke-size explorer sweeps, held to their clean result.

Each entry but the report leaves its record (the explorer: its
``startv.explore/v1`` summary) in
``benchmarks/results/golden/<entry>.json``.  ``GOLDEN.json``
maps each of them, and every top-level ``sim`` key in it, to the sha256
of its wall-free JSON, and the entries that moved since the previous
``GOLDEN.json`` are printed with the keys that moved.  The exit status
is non-zero when any entry's gate fails; CI then runs ``git diff
--exit-code -- GOLDEN.json REPORT.txt``, so a moved simulated result
fails until the committed outputs follow it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import RECORD_SCHEMA, strip_wall, write_record

#: one entry's runner: ``run(record_path, root) -> exit status``.
Runner = Callable[[str, str], int]

#: the sanitizer set of the traffic, sync and fault smoke runs.
SMOKE_SANITIZE = "credit,queue,combine"


def _scenario(name: str) -> Runner:
    def run(path: str, root: str) -> int:
        from repro.scenarios import run_scenario, scenario

        params = dict(scenario(name).explore_params)
        scen = scenario(name, **params)
        out = run_scenario(scen, n_nodes=scen.min_nodes)
        result = out.results[0]
        wall = out.snapshot["sim"].pop("wall")
        write_record(path, f"scenario.{name}",
                     dict(params, n_nodes=scen.min_nodes),
                     {"result": result, "snapshot": out.snapshot},
                     {"snapshot": wall})
        problem = scen.check(result)
        if problem is not None:
            print(f"FAIL: scenario {name}: {problem}", file=sys.stderr)
            return 1
        return 0
    return run


def _report(path: str, root: str) -> int:
    """Rewrite ``REPORT.txt`` from the ``blocks``, ``mechanisms`` and
    ``shm`` records this run wrote (a missing one is measured again); it
    writes no record, since CI diffs the report itself."""
    from repro.bench import report

    records = {}
    for name in ("blocks", "mechanisms", "shm"):
        record_path = os.path.join(os.path.dirname(path), f"{name}.json")
        if os.path.exists(record_path):
            with open(record_path) as fh:
                records[name] = json.load(fh)["sim"]
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        status = report.main(["--plot"], records=records)
    with open(os.path.join(root, "REPORT.txt"), "w") as fh:
        fh.write(text.getvalue())
    return status


def _bench(*argv: str) -> Runner:
    def run(path: str, root: str) -> int:
        from repro.bench import cli

        return cli.main([*argv, "--json", path])
    return run


def _explore(*argv: str) -> Runner:
    def run(path: str, root: str) -> int:
        from repro.explore.__main__ import main

        return main([*argv, "--json", path])
    return run


def _sync(path: str, root: str) -> int:
    """The 64-node sync smoke run; every field of a sweep point is
    simulated, so its points must equal the committed full-axis
    ``BENCH_sync.json``'s 64-node points."""
    status = _bench("sync", "--nodes", "64", "--jobs", "2", "--sanitize",
                    SMOKE_SANITIZE, "--emit-metrics")(path, root)

    def points(record_path: str) -> List[Dict[str, Any]]:
        with open(record_path) as fh:
            record = json.load(fh)
        return [{k: v for k, v in p.items() if k != "metrics"}
                for p in record["sim"]["points"] if p["nodes"] == 64]

    committed = points(os.path.join(root, "BENCH_sync.json"))
    if not committed or points(path) != committed:
        print("FAIL: 64-node sync points differ from BENCH_sync.json",
              file=sys.stderr)
        return 1
    return status


def entries() -> List[Tuple[str, Runner]]:
    """The golden table, in run order."""
    from repro.scenarios import scenario_names

    table = [(f"scenario.{name}", _scenario(name))
             for name in scenario_names()]
    table += [
        ("ablations", _bench("ablations")),
        ("blocks", _bench("blocks")),
        ("collectives", _bench("collectives")),
        ("diffing", _bench("diffing")),
        ("faults", _bench("faults", "--emit-metrics", "--jobs", "2",
                          "--sanitize", SMOKE_SANITIZE)),
        ("layering", _bench("layering")),
        ("mechanisms", _bench("mechanisms")),
        ("mpi", _bench("mpi")),
        ("network", _bench("network")),
        ("priority", _bench("priority")),
        ("queue_cache", _bench("queue_cache")),
        ("shm", _bench("shm", "--workload", "workloads", "--nodes", "16",
                       "--sanitize", "coherence,deadlock")),
        ("report", _report),
        ("traffic", _bench("traffic", "--rates", "20000,100000,400000",
                           "--sanitize", SMOKE_SANITIZE)),
        ("sync", _sync),
        ("workloads", _bench("workloads")),
        ("explore.shm_hash", _explore(
            "--scenario", "shm_hash", "--nodes", "2", "--max-schedules",
            "60", "--sanitize", "all")),
        ("explore.traffic_kv", _explore(
            "--scenario", "traffic_kv", "--nodes", "2", "--max-schedules",
            "40", "--sanitize", "all")),
    ]
    return table


def _sha(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest(doc: Dict[str, Any]) -> Dict[str, Any]:
    """``{"sha256": <the wall-free doc>, "sim": {key: <sim[key]>}}``.

    A document that is not a ``startv.bench`` record (the explorer's
    summary) is its own ``sim``.
    """
    doc = strip_wall(doc)
    sim = doc["sim"] if doc.get("schema") == RECORD_SCHEMA else doc
    return {"sha256": _sha(doc),
            "sim": {key: _sha(value) for key, value in sim.items()}}


def run_entry(name: str, runner: Runner, root: str
              ) -> Tuple[int, Optional[Dict[str, Any]]]:
    """Run one entry; its exit status and :func:`digest` (None when the
    entry wrote no document: the report, or an entry that raised first).
    A hashed entry that goes missing drops out of ``GOLDEN.json``, which
    the committed copy's diff shows."""
    path = os.path.join(root, "benchmarks", "results", "golden",
                        f"{name}.json")
    if os.path.exists(path):
        os.remove(path)
    try:
        status = runner(path, root)
        if not os.path.exists(path):
            return status, None
        with open(path) as fh:
            doc = json.load(fh)
    except Exception:  # one broken entry must not hide the others
        traceback.print_exc()
        return 1, None
    return status, digest(doc)


def moved(old: Dict[str, Any], new: Dict[str, Any]
          ) -> List[Tuple[str, List[str]]]:
    """Every entry whose hash differs, with the ``sim`` keys that moved
    (empty when only the entry's params or its presence changed)."""
    out = []
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name), new.get(name)
        if a == b:
            continue
        a_sim = a["sim"] if a else {}
        b_sim = b["sim"] if b else {}
        out.append((name, [key for key in sorted(set(a_sim) | set(b_sim))
                           if a_sim.get(key) != b_sim.get(key)]))
    return out


def run_golden(table: Sequence[Tuple[str, Runner]], root: str) -> int:
    """Run ``table``, write ``root/GOLDEN.json``; non-zero on any failed
    gate."""
    hashes: Dict[str, Any] = {}
    failed = []
    for name, runner in table:
        print(f"\n##### golden: {name}", flush=True)
        status, entry = run_entry(name, runner, root)
        if entry is not None:
            hashes[name] = entry
        if status:
            failed.append(name)
    golden_path = os.path.join(root, "GOLDEN.json")
    old: Dict[str, Any] = {}
    if os.path.exists(golden_path):
        with open(golden_path) as fh:
            old = json.load(fh)
    print()
    for name, keys in moved(old, hashes) if old else ():
        print(f"moved: {name}"
              + (f" ({', '.join('sim.' + k for k in keys)})" if keys else ""))
    with open(golden_path, "w") as fh:
        json.dump(hashes, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"golden: {len(hashes)} entries hashed into {golden_path}")
    for name in failed:
        print(f"FAIL: golden entry {name}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Sequence[str] = ()) -> int:
    if argv:
        print("python -m repro.bench golden takes no options",
              file=sys.stderr)
        return 2
    from repro.bench.cli import repo_root

    return run_golden(entries(), repo_root())
