"""Systematic interleaving exploration with sanitizer oracles.

The chaos smoke *samples* schedules at random; this package *enumerates*
them.  The engine's :class:`~repro.sim.engine.SchedulePolicy` hook turns
every group of same-timestamp scheduled items into an explicit decision
point; :func:`explore_scenario` drives a bounded canonical-first DFS
over those decisions with partial-order reduction (only alternatives
that *conflict* with an earlier ready item — same store, same process,
same link — branch) and a state-hash visited set, checking every
schedule with the runtime sanitizers, a per-scenario result predicate,
and the schedule-invariance oracle (wall-stripped metrics must not
depend on same-timestamp ordering).

Violating schedules serialize to JSON traces (:mod:`repro.explore.trace`)
that ``python -m repro.explore replay <trace>`` re-executes
deterministically — a shareable counterexample.  Historical races are
re-openable as behavior models (:mod:`repro.explore.models`) so the
regression tests can assert the explorer still finds them.

Front door::

    python -m repro.explore --scenario shm_hash --nodes 2 \\
        --max-schedules 5000 --sanitize all
"""

from repro.explore.conflict import conflict_key, keys_conflict
from repro.explore.driver import (
    ExploreResult,
    ScheduleOutcome,
    Violation,
    explore_scenario,
    replay_trace,
    run_schedule,
)
from repro.explore.models import MODELS, behavior_model
from repro.explore.policy import Decision, GuidedPolicy
from repro.explore.trace import (
    TRACE_SCHEMA,
    dump_trace,
    normalize_choices,
    parse_trace,
    trace_document,
)

__all__ = [
    "Decision",
    "ExploreResult",
    "GuidedPolicy",
    "MODELS",
    "ScheduleOutcome",
    "TRACE_SCHEMA",
    "Violation",
    "behavior_model",
    "conflict_key",
    "dump_trace",
    "explore_scenario",
    "keys_conflict",
    "normalize_choices",
    "parse_trace",
    "replay_trace",
    "run_schedule",
    "trace_document",
]
