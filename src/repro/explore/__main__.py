"""CLI front door: ``python -m repro.explore`` (explore or replay).

Explore::

    python -m repro.explore --scenario shm_hash --nodes 2 \\
        --max-schedules 5000 --sanitize all --json out.json \\
        --trace-out witness.json

Replay a serialized schedule trace::

    python -m repro.explore replay witness.json

Exit status: 0 for a clean sweep (or a replay that reproduces a clean
schedule), 1 when violations / an invariance breach were found (or a
replay reproduces the recorded violation — replay of a violating trace
"succeeding" at violating still exits 1, mirroring what a test harness
wants to assert on).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import ConfigError, ReproError
from repro.explore.driver import explore_scenario, replay_trace
from repro.explore.models import MODELS
from repro.explore.trace import (
    dump_trace,
    normalize_choices,
    parse_trace,
    trace_document,
)
from repro.scenarios import scenario


def _coerce(text: str) -> Any:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _parse_params(entries: Sequence[str]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for entry in entries:
        if "=" not in entry:
            raise ConfigError(f"--param wants key=value, got {entry!r}")
        key, _, value = entry.partition("=")
        params[key.strip()] = _coerce(value.strip())
    return params


def _write(path: str, text: str) -> None:
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_replay(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore replay",
        description="Re-execute one serialized schedule trace.")
    parser.add_argument("trace", help="trace JSON written by the explorer")
    parser.add_argument("--json", dest="as_json", action="store_true",
                        help="machine-readable verdict on stdout")
    args = parser.parse_args(argv)

    with open(args.trace, "r", encoding="utf-8") as fh:
        doc = parse_trace(fh.read())
    outcome = replay_trace(doc)
    verdict = {
        "scenario": doc["scenario"],
        "choices": doc["choices"],
        "decisions": len(outcome.decisions),
        "ok": outcome.ok,
        "error_kind": outcome.error_kind,
        "error": outcome.error,
    }
    if args.as_json:
        print(json.dumps(verdict, indent=2, sort_keys=True))
    elif outcome.ok:
        print(f"replayed {doc['scenario']} with choices {doc['choices']}: "
              f"clean ({len(outcome.decisions)} decision points)")
    else:
        print(f"replayed {doc['scenario']} with choices {doc['choices']}: "
              f"{outcome.error_kind}: {outcome.error}")
    recorded = doc.get("verdict")
    if recorded is not None and recorded.get("error_kind") != \
            outcome.error_kind:
        print(f"warning: trace was recorded with verdict "
              f"{recorded.get('error_kind')!r} but replayed to "
              f"{outcome.error_kind!r} (code drifted since capture?)",
              file=sys.stderr)
    return 0 if outcome.ok else 1


def _cmd_explore(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explore",
        description="Bounded systematic exploration of same-timestamp "
                    "event orderings, every schedule checked by the "
                    "runtime sanitizers + the schedule-invariance oracle.")
    parser.add_argument("--scenario", default="shm_hash",
                        help="scenario name (default shm_hash; see "
                             "repro.scenarios)")
    parser.add_argument("--nodes", type=int, default=2,
                        help="machine size, 2-4 (default 2)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sanitize", default="all",
                        help="sanitizer spec for every schedule "
                             "(default all)")
    parser.add_argument("--max-schedules", type=int, default=200,
                        help="schedule budget (default 200)")
    parser.add_argument("--max-depth", type=int, default=None,
                        help="stop branching past this decision depth")
    parser.add_argument("--model", default=None, choices=sorted(MODELS),
                        help="re-open a historical bug for the sweep")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="scenario constructor parameter (repeatable; "
                             "defaults per scenario otherwise)")
    parser.add_argument("--json", dest="json_out", default=None,
                        metavar="FILE", help="write the summary JSON here")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write the first violating (or racy-witness) "
                             "schedule trace here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-violation progress lines")
    args = parser.parse_args(argv)

    params = _parse_params(args.param) or None
    progress = (lambda msg: None) if args.quiet else \
        (lambda msg: print(f"  {msg}"))
    res = explore_scenario(
        args.scenario, params, n_nodes=args.nodes, seed=args.seed,
        sanitize=args.sanitize, model=args.model,
        max_schedules=args.max_schedules, max_depth=args.max_depth,
        progress=progress)

    summary = res.summary()
    summary.update({
        "schema": "startv.explore/v1",
        "scenario": args.scenario,
        "params": params or scenario(args.scenario).explore_params,
        "n_nodes": args.nodes,
        "seed": args.seed,
        "sanitize": args.sanitize,
        "model": args.model,
    })
    print(f"{args.scenario} @ {args.nodes} nodes"
          + (f" [model={args.model}]" if args.model else "") + ":")
    print(f"  {summary['schedules_run']} schedules run, "
          f"{summary['distinct_schedules']} distinct, "
          f"{summary['pruned']} commuting alternatives pruned, "
          f"{summary['visited_hits']} visited-state hits, "
          f"{summary['frontier_left']} frontier entries unexplored")
    print(f"  max {summary['max_decisions']} decision points / schedule, "
          f"max {summary['max_ready']} ready items / decision")

    witness_choices: Optional[List[int]] = None
    verdict: Optional[Dict[str, Any]] = None
    if res.violations:
        first = res.violations[0]
        witness_choices = first.choices
        verdict = {"error_kind": first.error_kind, "error": first.error}
        print(f"  {len(res.violations)} violating schedule(s); first: "
              f"{first.error_kind}: {first.error}")
    elif res.racy is not None:
        witness_choices = res.racy["witness_other"]
        verdict = {"error_kind": "Racy", "error": res.racy["detail"]}
        print(f"  RACY: {res.racy['detail']}")
        print(f"  witness pair: {res.racy['witness']} vs "
              f"{res.racy['witness_other']}")
    else:
        print("  clean sweep: every schedule passed the sanitizers, the "
              "scenario check, and schedule invariance")

    if args.trace_out and witness_choices is not None:
        doc = trace_document(
            args.scenario, params or scenario(args.scenario).explore_params,
            args.nodes, args.seed, args.sanitize, args.model,
            normalize_choices(witness_choices), verdict=verdict)
        _write(args.trace_out, dump_trace(doc))
        print(f"  witness trace -> {args.trace_out}")
    if args.json_out:
        _write(args.json_out, json.dumps(summary, indent=2, sort_keys=True)
               + "\n")
    return 0 if res.clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "replay":
            return _cmd_replay(argv[1:])
        return _cmd_explore(argv)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
