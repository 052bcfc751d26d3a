"""``python -m repro.bench`` — the unified benchmark front door.

Every benchmark lives in ``benchmarks/bench_*.py``.  Historically each
file carried its own argparse copy; this CLI owns the *shared* flags
once (``--jobs``, ``--emit-metrics``, ``--trace``, ``--sanitize``,
``--seed``, ``--json``) and discovers the per-file workers:

* a module that defines a ``BENCH`` registration — ``{"summary": str,
  "run": callable(args), "flags": callable(parser) | None}`` — is a
  *CLI worker*: the CLI builds shared flags + the module's extras and
  calls ``run(args)``;
* any other ``bench_*.py`` is a *pytest worker* and is executed through
  ``pytest`` (the pedantic-benchmark style files).

Usage::

    python -m repro.bench                  # list every benchmark
    python -m repro.bench fig3_latency --emit-metrics --jobs 4
    python benchmarks/bench_fig3_latency.py ...   # same thing (shim)
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Any, Dict, List, Optional

#: shared-flag defaults a worker can rely on even when the flag makes no
#: sense for it (documented as ignored in that case).
SHARED_FLAG_HELP = {
    "--jobs": "worker processes for sweeps (byte-identical output for any "
              "value; default 1)",
    "--emit-metrics": "write schema-versioned metrics snapshots next to the "
                      "human-readable table",
    "--trace": "render a Perfetto trace of one representative run",
    "--sanitize": "comma-separated runtime sanitizers to install "
                  "(see repro.analysis)",
    "--seed": "topology/workload seed (default 0)",
    "--json": "write the benchmark's machine-readable document to OUT",
}


def repo_root() -> str:
    """The checkout root (parent of ``src``), where ``benchmarks`` lives."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__))))


def benchmarks_dir() -> str:
    return os.path.join(repo_root(), "benchmarks")


def discover() -> Dict[str, str]:
    """``name -> module file`` for every ``benchmarks/bench_*.py``."""
    found: Dict[str, str] = {}
    bdir = benchmarks_dir()
    if not os.path.isdir(bdir):
        return found
    for entry in sorted(os.listdir(bdir)):
        if entry.startswith("bench_") and entry.endswith(".py"):
            found[entry[len("bench_"):-3]] = os.path.join(bdir, entry)
    return found


def load_bench(name: str):
    """Import one benchmark module (repo root goes on ``sys.path`` so
    ``benchmarks`` imports as the package the files expect)."""
    root = repo_root()
    if root not in sys.path:
        sys.path.insert(0, root)
    return importlib.import_module(f"benchmarks.bench_{name}")


def shared_parser(prog: str, summary: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, description=summary)
    parser.add_argument("--jobs", type=int, default=1,
                        help=SHARED_FLAG_HELP["--jobs"])
    parser.add_argument("--emit-metrics", action="store_true",
                        help=SHARED_FLAG_HELP["--emit-metrics"])
    parser.add_argument("--trace", action="store_true",
                        help=SHARED_FLAG_HELP["--trace"])
    parser.add_argument("--sanitize", default=None, metavar="NAMES",
                        help=SHARED_FLAG_HELP["--sanitize"])
    parser.add_argument("--seed", type=int, default=0,
                        help=SHARED_FLAG_HELP["--seed"])
    parser.add_argument("--json", default=None, metavar="OUT",
                        help=SHARED_FLAG_HELP["--json"])
    return parser


def _summary_of(module) -> str:
    bench = getattr(module, "BENCH", None)
    if bench and bench.get("summary"):
        return bench["summary"]
    doc = (module.__doc__ or "").strip().splitlines()
    return doc[0] if doc else ""


def list_benchmarks(stream=None) -> int:
    stream = stream or sys.stdout
    names = discover()
    if not names:
        print("no benchmarks/ directory found", file=stream)
        return 1
    print("available benchmarks (python -m repro.bench <name>):",
          file=stream)
    for name in names:
        try:
            module = load_bench(name)
            kind = "cli   " if hasattr(module, "BENCH") else "pytest"
            summary = _summary_of(module)
        except Exception as exc:  # a broken bench must not hide the rest
            kind, summary = "error ", f"import failed: {exc}"
        print(f"  {name:<16s} [{kind}] {summary}", file=stream)
    return 0


def run_pytest_bench(path: str, extra: List[str]) -> int:
    """Execute a pytest-style benchmark file under pytest."""
    import pytest

    return pytest.main([path, "-q", *extra])


def pytest_bench(name: str, summary: str) -> Dict[str, Any]:
    """``BENCH`` registration for a pytest-style benchmark file.

    Gives the pedantic-benchmark files the same front door as the CLI
    workers: shared flags are parsed, ``--sanitize`` maps to the
    ``REPRO_SANITIZE`` environment (installing runtime sanitizers in
    every machine the file builds), and ``--json`` dumps the recorded
    result tables.  ``--jobs``/``--seed`` have no pytest equivalent
    and are accepted but ignored.
    """
    summary = (summary or "").strip().splitlines()[0] if summary else ""

    def run(args) -> int:
        path = os.path.join(benchmarks_dir(), f"bench_{name}.py")
        previous = os.environ.get("REPRO_SANITIZE")
        if args.sanitize:
            os.environ["REPRO_SANITIZE"] = args.sanitize
        try:
            rc = run_pytest_bench(path, ["-s"])
        finally:
            if args.sanitize:
                if previous is None:
                    os.environ.pop("REPRO_SANITIZE", None)
                else:
                    os.environ["REPRO_SANITIZE"] = previous
        if args.json:
            import json

            from benchmarks.conftest import _rows

            document = {
                "benchmark": name,
                "schema": "startv.bench_tables",
                "schema_version": 1,
                "tables": {
                    title: {"header": list(header), "rows": rows}
                    for title, (header, rows) in _rows.items()
                },
            }
            with open(args.json, "w") as fh:
                json.dump(document, fh, indent=2, sort_keys=True)
            print(f"tables: {args.json}")
        return rc

    return {"summary": summary, "run": run, "flags": None}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("list", "--list", "-l"):
        return list_benchmarks()
    if argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    name, rest = argv[0], argv[1:]
    known = discover()
    if name not in known:
        print(f"unknown benchmark {name!r}; known: {', '.join(known)}",
              file=sys.stderr)
        return 2
    module = load_bench(name)
    bench: Optional[Dict[str, Any]] = getattr(module, "BENCH", None)
    if bench is None:
        return run_pytest_bench(known[name], rest)
    parser = shared_parser(f"python -m repro.bench {name}",
                           _summary_of(module))
    flags = bench.get("flags")
    if flags is not None:
        flags(parser)
    args = parser.parse_args(rest)
    result = bench["run"](args)
    return 0 if result is None else int(result)
