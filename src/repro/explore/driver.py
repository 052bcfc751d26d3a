"""The bounded DFS schedule explorer.

:func:`run_schedule` executes one scenario under one choice prefix on a
fresh machine and reports a :class:`ScheduleOutcome`;
:func:`explore_scenario` drives the depth-first enumeration with
partial-order reduction and a state-hash visited set, checking every
schedule against three oracles:

1. **sanitizers** — the machine runs with the configured runtime
   checkers armed; any :class:`~repro.common.errors.SanitizerError` /
   :class:`~repro.common.errors.DeadlockError` is a violation tagged
   with the raising checker's message.
2. **scenario check** — each scenario's own
   :meth:`~repro.scenarios.Scenario.check` of its result (every insert
   found, every rank released, no lost store, every request completed).  A bug that corrupts *every* schedule equally
   would slip past the invariance oracle; this one catches it.
3. **schedule invariance** — every clean schedule's wall-stripped
   metrics snapshot must equal schedule 0's.  A mismatch means the
   scenario's observable behavior depends on same-timestamp ordering:
   it is *racy*, and the explorer reports a minimized witness pair.

Exploration is canonical-first: choice 0 (the engine's native seq
order) is always taken, and an alternative ``i > 0`` is enqueued only
when ``ready[i]`` conflicts with an earlier ready item — commuting
alternatives are counted as ``pruned`` instead of explored.  The
visited set hashes (choices-so-far multiset, ready-set keys), so two
prefixes that merely commuted independent events collapse into one
expansion (``visited_hits``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.common.errors import ConfigError, ReproError
from repro.explore.models import behavior_model
from repro.explore.policy import Decision, GuidedPolicy
from repro.explore.trace import normalize_choices

#: per-schedule liveness bounds: a schedule that passes either without
#: quiescing is hung or livelocked (a poller spinning on a barrier that
#: will never release generates events forever, so the drain-based
#: deadlock watchdog never fires).  Both sit far above what any clean
#: explorer-scale scenario reaches (< 1 ms simulated, < 1k decisions).
HORIZON_NS = 20_000_000.0
DECISION_BUDGET = 20_000


class ScheduleOutcome(NamedTuple):
    """Everything one schedule execution produced."""

    prefix: List[int]              #: the prescribed choice prefix
    choices: List[int]             #: full per-decision choices taken
    decisions: List[Decision]      #: per-decision records
    schedule_hash: int             #: order-sensitive schedule identity
    snapshot: Optional[Dict]       #: comparable metrics (None on error)
    result: Optional[Any]          #: scenario result (None on error)
    sanitizers: Optional[Dict]     #: per-checker activity counters
    error: Optional[str]           #: violation message, if any
    error_kind: Optional[str]      #: exception class / "CheckFailure"

    @property
    def ok(self) -> bool:
        return self.error is None


class Violation(NamedTuple):
    """One violating schedule, replay-ready."""

    choices: List[int]             #: normalized (trailing 0s stripped)
    error: str
    error_kind: str


class ExploreResult:
    """Aggregate outcome of one bounded exploration."""

    def __init__(self) -> None:
        self.schedules_run = 0
        self.distinct: set = set()          #: order-sensitive hashes
        self.pruned = 0                     #: commuting alts skipped
        self.visited_hits = 0               #: state-hash collapses
        self.depth_capped = 0               #: decisions past --max-depth
        self.frontier_left = 0              #: unexplored when budget hit
        self.max_decisions = 0
        self.max_ready = 0
        self.minimize_runs = 0
        self.violations: List[Violation] = []
        self.racy: Optional[Dict[str, Any]] = None  #: invariance breach
        self.baseline: Optional[ScheduleOutcome] = None

    @property
    def clean(self) -> bool:
        return not self.violations and self.racy is None

    def summary(self) -> Dict[str, Any]:
        return {
            "schedules_run": self.schedules_run,
            "distinct_schedules": len(self.distinct),
            "pruned": self.pruned,
            "visited_hits": self.visited_hits,
            "depth_capped": self.depth_capped,
            "frontier_left": self.frontier_left,
            "max_decisions": self.max_decisions,
            "max_ready": self.max_ready,
            "minimize_runs": self.minimize_runs,
            "violations": [v._asdict() for v in self.violations],
            "racy": self.racy,
            "clean": self.clean,
        }


# ----------------------------------------------------------------------
# one schedule
# ----------------------------------------------------------------------


def run_schedule(scenario: str, params: Optional[Dict[str, Any]] = None,
                 n_nodes: int = 2, seed: int = 0, sanitize: str = "all",
                 prefix: Sequence[int] = (), model: Optional[str] = None,
                 horizon_ns: Optional[float] = HORIZON_NS,
                 max_decisions: Optional[int] = DECISION_BUDGET,
                 ) -> ScheduleOutcome:
    """Execute one scenario under one choice prefix on a fresh machine."""
    from repro.common.config import default_config
    from repro.obs.snapshot import strip_wall
    from repro.scenarios import ScenarioMachine, scenario as make_scenario

    with behavior_model(model):
        config = default_config(n_nodes=n_nodes)
        config.seed = seed
        config.sanitize = sanitize or ()
        scen = make_scenario(scenario, **(params or {}))
        scen.prepare(config)
        sm = ScenarioMachine(config, scen)
        machine = sm.machine
        policy = GuidedPolicy(prefix, horizon_ns=horizon_ns,
                              max_decisions=max_decisions)
        machine.engine.schedule_policy = policy
        error = error_kind = None
        snapshot = result = None
        try:
            run = sm.run()
        except ReproError as exc:
            error, error_kind = str(exc), type(exc).__name__
        else:
            snapshot = strip_wall(run.snapshot)
            result = run.results[0]
            failure = scen.check(result)
            if failure is not None:
                error, error_kind = failure, "CheckFailure"
        layer = getattr(machine, "sanitizers", None)
        sanitizers = layer.oracle_report() if layer is not None else None
    return ScheduleOutcome(
        prefix=list(prefix),
        choices=[d.chosen for d in policy.decisions],
        decisions=policy.decisions,
        schedule_hash=policy.schedule_hash,
        snapshot=snapshot,
        result=result,
        sanitizers=sanitizers,
        error=error,
        error_kind=error_kind,
    )


# ----------------------------------------------------------------------
# the DFS
# ----------------------------------------------------------------------


def _minimize(choices: List[int], still_fails: Callable[[List[int]], bool],
              budget: int, counter: List[int]) -> List[int]:
    """Greedy witness minimization: try zeroing each non-canonical
    choice; keep any removal that preserves the verdict."""
    best = normalize_choices(choices)
    progress = True
    while progress and counter[0] < budget:
        progress = False
        for i in range(len(best)):
            if best[i] == 0:
                continue
            candidate = normalize_choices(best[:i] + [0] + best[i + 1:])
            counter[0] += 1
            if still_fails(candidate):
                best = candidate
                progress = True
                break
            if counter[0] >= budget:
                break
    return best


def explore_scenario(scenario: str, params: Optional[Dict[str, Any]] = None,
                     n_nodes: int = 2, seed: int = 0, sanitize: str = "all",
                     model: Optional[str] = None, max_schedules: int = 200,
                     max_depth: Optional[int] = None,
                     minimize_budget: int = 30,
                     progress: Optional[Callable[[str], None]] = None,
                     ) -> ExploreResult:
    """Bounded canonical-first DFS over same-timestamp orderings."""
    if n_nodes < 2 or n_nodes > 4:
        raise ConfigError(
            f"the explorer targets 2-4 node configs, not {n_nodes} "
            f"(schedule counts explode with machine size)")
    if params is None:
        from repro.scenarios import scenario as make_scenario

        params = make_scenario(scenario).explore_params

    def runner(prefix: Sequence[int]) -> ScheduleOutcome:
        return run_schedule(scenario, params, n_nodes=n_nodes, seed=seed,
                            sanitize=sanitize, prefix=prefix, model=model)

    res = ExploreResult()
    visited: set = set()
    stack: List[List[int]] = [[]]
    min_counter = [0]
    while stack and res.schedules_run < max_schedules:
        prefix = stack.pop()
        outcome = runner(prefix)
        res.schedules_run += 1
        res.distinct.add(outcome.schedule_hash)
        res.max_decisions = max(res.max_decisions, len(outcome.decisions))
        for dec in outcome.decisions:
            res.max_ready = max(res.max_ready, dec.n_ready)

        if outcome.error is not None:
            witness = _minimize(
                outcome.choices,
                lambda c: runner(c).error_kind == outcome.error_kind,
                minimize_budget, min_counter)
            res.violations.append(Violation(
                witness, outcome.error, outcome.error_kind))
            if progress:
                progress(f"violation ({outcome.error_kind}) at "
                         f"schedule {res.schedules_run}: {witness}")
            continue  # a broken schedule's suffix is not worth expanding

        if res.baseline is None:
            res.baseline = outcome
        elif res.racy is None and outcome.snapshot != res.baseline.snapshot:
            base = res.baseline
            witness = _minimize(
                outcome.choices,
                lambda c: runner(c).snapshot != base.snapshot,
                minimize_budget, min_counter)
            res.racy = {
                "witness": normalize_choices(base.choices),
                "witness_other": witness,
                "detail": "wall-stripped metrics differ between the two "
                          "schedules (observable behavior depends on "
                          "same-timestamp ordering)",
            }
            if progress:
                progress(f"schedule-invariance breach at schedule "
                         f"{res.schedules_run}: witness pair "
                         f"{res.racy['witness']} vs {witness}")

        # expand only the suffix this run explored for the first time
        for d in range(len(prefix), len(outcome.decisions)):
            if max_depth is not None and d >= max_depth:
                res.depth_capped += 1
                break
            dec = outcome.decisions[d]
            res.pruned += dec.pruned
            for index, token in dec.branches:
                key = (dec.state_hash, token)
                if key in visited:
                    res.visited_hits += 1
                    continue
                visited.add(key)
                stack.append(outcome.choices[:d] + [index])
    res.frontier_left = len(stack)
    res.minimize_runs = min_counter[0]
    return res


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


def replay_trace(doc: Dict[str, Any]) -> ScheduleOutcome:
    """Re-execute the schedule a trace document pins."""
    return run_schedule(
        doc["scenario"], doc.get("params") or {},
        n_nodes=doc["n_nodes"], seed=doc["seed"],
        sanitize=doc.get("sanitize", "all"),
        prefix=doc["choices"], model=doc.get("model"),
    )
