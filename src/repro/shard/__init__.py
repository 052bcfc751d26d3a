"""Former name of :mod:`repro.scenarios`; these names re-export it."""

from repro.scenarios import ChaosScenario, MixedScenario, PingScenario
from repro.scenarios import Scenario as ShardScenario
from repro.scenarios import ScenarioMachine
from repro.scenarios import ScenarioRun as ShardRun
from repro.scenarios import SyncScenario, run_scenario, scenario, scenario_names

__all__ = ["ShardRun", "ShardedMachine", "run_scenario", "ShardScenario",
           "PingScenario", "MixedScenario", "SyncScenario", "ChaosScenario",
           "scenario", "scenario_names"]


def ShardedMachine(config, scenario, backend="inline"):
    """The former constructor: a :class:`~repro.scenarios.ScenarioMachine`.
    ``"inline"`` is the only backend."""
    if backend != "inline":
        raise ValueError(f"unknown backend {backend!r} (only 'inline')")
    return ScenarioMachine(config, scenario)
