"""Former name of the :mod:`repro.scenarios` registry; these names
re-export it."""

from repro.scenarios import BurstScenario, ChaosScenario, GraphScenario
from repro.scenarios import HashScenario, MixedScenario, PatternScenario
from repro.scenarios import PingScenario, SyncScenario, TakeoverScenario
from repro.scenarios import Scenario as ShardScenario
from repro.scenarios import scenario, scenario_names

__all__ = ["ShardScenario", "PingScenario", "MixedScenario", "SyncScenario",
           "ChaosScenario", "GraphScenario", "HashScenario",
           "PatternScenario", "BurstScenario", "TakeoverScenario",
           "scenario", "scenario_names"]
