"""``python -m repro.bench`` — the unified benchmark front door.

Every benchmark is one ``benchmarks/bench_<name>.py`` that defines a
``BENCH`` registration — ``{"summary": str, "run": callable(args),
"flags": callable(parser) | None}``.  This CLI owns the *shared* flags
once (``--jobs``, ``--emit-metrics``, ``--trace``, ``--sanitize``,
``--json``), adds the module's extras and calls
``run(args)``, which measures each of its points once, prints its
tables, writes one ``startv.bench`` record
(:func:`repro.bench.harness.write_record`) holding every number it
printed to ``--json OUT`` (default ``benchmarks/results/<name>.json``),
and returns its exit status: 1, with a ``FAIL: <claim>`` line per
failed claim (:func:`repro.bench.harness.check_claims`), when any of
its claims does not hold.

``python -m repro.bench golden`` (no options) runs the golden-output
gate of :mod:`repro.bench.golden`: every bench, hashed.

Usage::

    python -m repro.bench                  # list every benchmark
    python -m repro.bench blocks --emit-metrics --jobs 4
    python -m repro.bench sync --json BENCH_sync.json
    python -m repro.bench golden
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys
from typing import Any, Dict, Iterator, List, Optional

SHARED_FLAG_HELP = {
    "--jobs": "worker processes for sweeps (byte-identical output for any "
              "value; default 1)",
    "--emit-metrics": "add per-point metrics snapshots to the record",
    "--trace": "render a Perfetto trace of one representative run",
    "--sanitize": "comma-separated runtime sanitizers to install in every "
                  "machine the run builds (see repro.analysis)",
    "--json": "where to write the startv.bench record "
              "(default benchmarks/results/<name>.json)",
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


def shared_parser(name: str, summary: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"python -m repro.bench {name}",
                                     description=summary)
    parser.add_argument("--jobs", type=int, default=1,
                        help=SHARED_FLAG_HELP["--jobs"])
    parser.add_argument("--emit-metrics", action="store_true",
                        help=SHARED_FLAG_HELP["--emit-metrics"])
    parser.add_argument("--trace", action="store_true",
                        help=SHARED_FLAG_HELP["--trace"])
    parser.add_argument("--sanitize", default=None, metavar="NAMES",
                        help=SHARED_FLAG_HELP["--sanitize"])
    parser.add_argument("--json", metavar="OUT",
                        default=os.path.join(benchmarks_dir(), "results",
                                             f"{name}.json"),
                        help=SHARED_FLAG_HELP["--json"])
    return parser


@contextlib.contextmanager
def sanitized(spec: Optional[str]) -> Iterator[None]:
    """Install ``spec``'s sanitizers in every machine built inside the
    block, through ``REPRO_SANITIZE`` (which sweep pool workers inherit);
    the environment is restored on exit.  Unknown names raise."""
    if not spec:
        yield
        return
    from repro.analysis.sanitize import resolve_sanitizers

    previous = os.environ.get("REPRO_SANITIZE")
    os.environ["REPRO_SANITIZE"] = ",".join(resolve_sanitizers(spec))
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_SANITIZE", None)
        else:
            os.environ["REPRO_SANITIZE"] = previous


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
            summary = load_bench(name).BENCH["summary"]
        except Exception as exc:  # a broken bench must not hide the rest
            summary = f"import failed: {exc}"
        print(f"  {name:<16s} {summary}", file=stream)
    print(f"  {'golden':<16s} every scenario and bench, each held to its "
          f"gate, hashed into GOLDEN.json", file=stream)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("list", "--list", "-l"):
        return list_benchmarks()
    if argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    name, rest = argv[0], argv[1:]
    if name == "golden":
        from repro.bench import golden

        return golden.main(rest)
    known = discover()
    if name not in known:
        print(f"unknown benchmark {name!r}; known: {', '.join(known)}",
              file=sys.stderr)
        return 2
    bench: Dict[str, Any] = load_bench(name).BENCH
    parser = shared_parser(name, bench["summary"])
    if bench["flags"] is not None:
        bench["flags"](parser)
    args = parser.parse_args(rest)
    with sanitized(args.sanitize):
        return bench["run"](args)
