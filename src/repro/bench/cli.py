"""``python -m repro.bench`` — the unified benchmark front door.

Every benchmark lives in ``benchmarks/bench_*.py``.  This CLI owns the
*shared* flags once (``--jobs``, ``--emit-metrics``, ``--trace``,
``--sanitize``, ``--seed``, ``--json``) and discovers the per-file
workers:

* a module that defines a ``BENCH`` registration — ``{"summary": str,
  "run": callable(args), "flags": callable(parser) | None}`` — is a
  *CLI worker*: the CLI builds shared flags + the module's extras and
  calls ``run(args)``, which writes one ``startv.bench`` record
  (:func:`repro.bench.harness.write_record`) to ``--json OUT``, by
  default ``benchmarks/results/<name>.json``;
* any other ``bench_*.py`` is a *pytest worker* and is executed through
  ``pytest`` with the remaining arguments (the pedantic-benchmark style
  files); sanitize one with ``REPRO_SANITIZE=... python -m repro.bench
  <name>``.

``python -m repro.bench golden`` (no options) runs the golden-output
gate of :mod:`repro.bench.golden`.

Usage::

    python -m repro.bench                  # list every benchmark
    python -m repro.bench fig3_latency --emit-metrics --jobs 4
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
    "--seed": "topology/workload seed (default 0)",
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
    parser.add_argument("--seed", type=int, default=0,
                        help=SHARED_FLAG_HELP["--seed"])
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
    print(f"  {'golden':<16s} [gate  ] every scenario and smoke bench, "
          f"hashed into GOLDEN.json", file=stream)
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
    module = load_bench(name)
    bench: Optional[Dict[str, Any]] = getattr(module, "BENCH", None)
    if bench is None:
        import pytest

        return pytest.main([known[name], "-q", "-s", *rest])
    parser = shared_parser(name, _summary_of(module))
    flags = bench.get("flags")
    if flags is not None:
        flags(parser)
    args = parser.parse_args(rest)
    with sanitized(args.sanitize):
        result = bench["run"](args)
    return 0 if result is None else int(result)
