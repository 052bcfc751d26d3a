"""``repro.shard`` — the scenario registry and its runner.

A :class:`ShardScenario` describes a whole-machine workload as
per-phase setup; :func:`run_scenario` builds one machine, runs each
phase to quiescence and returns the metrics snapshot with the
scenario's result.

Front door::

    from repro.shard import run_scenario, scenario

    run = run_scenario(scenario("mixed"), n_nodes=8)
    run.snapshot   # the machine's metrics snapshot
    run.results    # [the scenario's result]
"""

from repro.shard.runner import ShardRun, ShardedMachine, run_scenario
from repro.shard.scenarios import (
    ChaosScenario,
    MixedScenario,
    PingScenario,
    ShardScenario,
    SyncScenario,
    scenario,
    scenario_names,
)

__all__ = [
    "ShardRun",
    "ShardedMachine",
    "run_scenario",
    "ShardScenario",
    "PingScenario",
    "MixedScenario",
    "SyncScenario",
    "ChaosScenario",
    "scenario",
    "scenario_names",
]
