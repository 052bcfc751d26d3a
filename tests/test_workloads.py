"""The §7 system workloads, each a registered scenario."""

from repro.scenarios import run_scenario, scenario


def _run(name, n_nodes=4, **params):
    """The scenario's result on a fresh machine, held to its own check."""
    scn = scenario(name, **params)
    result = run_scenario(scn, n_nodes=n_nodes).results[0]
    assert scn.check(result) is None
    return result


def test_uniform_random_verifies():
    result = _run("uniform_random", messages_per_node=10)
    assert result["problems"] == [] and result["msgs_per_s"] > 0


def test_uniform_random_deterministic_plan():
    """The same seed produces the same traffic plan (and simulated time)."""

    def elapsed(seed):
        return _run("uniform_random", messages_per_node=8,
                    seed=seed)["elapsed_ns"]

    assert elapsed(3) == elapsed(3)
    assert elapsed(3) != elapsed(4)  # different plan, different schedule


def test_hotspot_counts_all():
    assert _run("hotspot", messages_per_node=12)["msgs_per_s"] > 0


def test_hotspot_custom_hot_node():
    assert _run("hotspot", messages_per_node=5, hot_node=2)["problems"] == []


def test_pipeline_transform_chain():
    assert _run("pipeline", rounds=6)["ns_per_hop"] > 0


def test_mixed_workload_integrity():
    assert _run("mechanism_mix", n_nodes=2)["problems"] == []


def test_workload_check_refuses_any_problem():
    assert scenario("hotspot").check({"problems": ["a", "b"]}) == "a; b"


def test_print_table_formatting(capsys):
    from repro.bench import print_table

    print_table("My Table", ["a", "long header"], [[1, 2.34567], ["xx", 9]])
    out = capsys.readouterr().out
    assert "== My Table ==" in out
    assert "long header" in out
    assert "2.35" in out  # floats formatted to 2 places
    assert "xx" in out
