"""The scenarios in the registry, each run on one machine.

``repro.run`` builds one machine, runs the scenario's phases to
quiescence and returns the metrics snapshot with the scenario result;
these pin down what each scenario must deliver.
"""

import json

import pytest

import repro
import repro.scenarios
from repro.bench import comparable
from repro.common.errors import ConfigError
from repro.scenarios import (
    MixedScenario,
    PingScenario,
    SyncScenario,
    scenario,
    scenario_names,
)

N_NODES = 8


def _run(scn):
    return repro.run(scn, n_nodes=N_NODES)


def _expected_deliveries(scn):
    return sum(scn._incoming(rank, N_NODES) for rank in range(N_NODES))


def test_mixed_workload_delivers_every_message():
    scn = MixedScenario()
    run = _run(scn)
    (log,) = run.results
    assert len(log) == _expected_deliveries(scn) > 0
    again = _run(MixedScenario())
    assert json.dumps(comparable(again.snapshot), sort_keys=True,
                      default=repr) == \
        json.dumps(comparable(run.snapshot), sort_keys=True, default=repr)
    assert again.results == run.results


def test_fig3_echoes_every_ping():
    run = _run(PingScenario(sizes=(4, 64), pings=2))
    (res,) = run.results
    assert res["echo_ok"] is True
    assert [size for size, _ in res["rtts"]] == [4, 4, 64, 64]
    small = max(rtt for size, rtt in res["rtts"] if size == 4)
    large = min(rtt for size, rtt in res["rtts"] if size == 64)
    assert 0 < small < large


def test_sync_allreduce_sums_every_rank():
    run = _run(SyncScenario())
    (sums,) = run.results
    assert sums == {r: N_NODES * (N_NODES + 1) // 2 for r in range(N_NODES)}


def test_chaos_downs_repairs_and_delivers():
    scn = scenario("chaos")
    config = repro.default_config(n_nodes=N_NODES)
    victims = scn.victims(config)
    # both up-links of one switch, so its traffic must detour
    assert len(victims) == 2
    assert len({name.split("->")[0] for name in victims}) == 1
    run = repro.run(scn, config=config)
    counters = run.snapshot["counters"]
    assert counters["faults.link_down"] == 2
    assert counters["faults.link_up"] == 2
    (log,) = run.results
    assert len(log) == _expected_deliveries(scn)


@pytest.mark.parametrize("name", scenario_names())
def test_every_scenario_passes_its_own_check(name):
    scn = scenario(name)
    run = repro.run(scn, n_nodes=scn.min_nodes)
    assert scn.check(run.results[0]) is None


def test_scenario_refuses_too_few_nodes():
    with pytest.raises(ConfigError):
        repro.run(scenario("express"), n_nodes=1)


def test_shard_names_are_the_scenarios_objects():
    import repro.shard
    import repro.shard.scenarios

    renamed = {"ShardScenario": "Scenario", "ShardRun": "ScenarioRun"}
    for stub in (repro.shard, repro.shard.scenarios):
        for name in stub.__all__:
            if stub is repro.shard and name == "ShardedMachine":
                continue  # a constructor function, checked below
            assert getattr(stub, name) is \
                getattr(repro.scenarios, renamed.get(name, name))
    config = repro.default_config(n_nodes=2)
    sm = repro.shard.ShardedMachine(config, scenario("express"), "inline")
    assert isinstance(sm, repro.scenarios.ScenarioMachine)
    with pytest.raises(ValueError):
        repro.shard.ShardedMachine(config, scenario("express"), "process")
