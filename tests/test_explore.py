"""The systematic interleaving explorer (:mod:`repro.explore`).

Three layers under test: the POR conflict relation (unit), single
schedule execution + trace round-trips (integration), and the two
historical races re-opened as behavior models — the explorer must find
each on the pre-fix model and sweep clean on current code.
"""

import pytest

from repro.common.errors import ConfigError
from repro.explore import (
    GuidedPolicy,
    behavior_model,
    conflict_key,
    dump_trace,
    explore_scenario,
    keys_conflict,
    normalize_choices,
    parse_trace,
    replay_trace,
    run_schedule,
    trace_document,
)

# ----------------------------------------------------------------------
# the conflict relation
# ----------------------------------------------------------------------


def test_same_node_processes_conflict():
    assert keys_conflict(("proc", ("ap0.writer",)), ("proc", ("ctrl0.tx",)))
    assert keys_conflict(("proc", ("sp1.kernel",)), ("ev", "sbiu1.cmd"))


def test_cross_node_processes_commute():
    assert not keys_conflict(("proc", ("ap0.writer",)),
                             ("proc", ("ap1.writer",)))
    assert not keys_conflict(("ev", "ctrl0.rx"), ("ev", "ctrl1.rx"))


def test_identical_keys_always_conflict():
    key = ("store", "switch.inbuf")
    assert keys_conflict(key, key)


def test_unclassifiable_is_conservative():
    assert keys_conflict(None, ("proc", ("ap0.writer",)))
    assert keys_conflict(None, None)
    # names with no index carry no placement info: assume shared
    assert keys_conflict(("ev", "fw.dram"), ("proc", ("ap0.writer",)))


def test_noop_never_conflicts():
    assert not keys_conflict(("noop", ""), None)
    assert not keys_conflict(("noop", ""), ("proc", ("ap0.writer",)))


def test_conflict_key_classifies_heap_kinds():
    class Ev:
        name = "put:niu0.txq"

    assert conflict_key((0.0, 1, 1, Ev(), None)) == ("store", "niu0.txq")


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------


def test_normalize_strips_canonical_suffix():
    assert normalize_choices([0, 2, 1, 0, 0]) == [0, 2, 1]
    assert normalize_choices([0, 0]) == []


def test_trace_round_trip():
    doc = trace_document("shm_takeover", {}, 2, 0, "all", "kill_grant",
                         [0, 1], verdict={"error_kind": "CheckFailure"})
    parsed = parse_trace(dump_trace(doc))
    assert parsed["scenario"] == "shm_takeover"
    assert parsed["choices"] == [0, 1]
    assert parsed["model"] == "kill_grant"


def test_parse_trace_rejects_wrong_schema():
    with pytest.raises(ConfigError):
        parse_trace('{"schema": "startv.other/v1"}')
    with pytest.raises(ConfigError):
        parse_trace('{"schema": "startv.explore_trace/v1"}')  # no fields


# ----------------------------------------------------------------------
# one schedule
# ----------------------------------------------------------------------


def test_canonical_schedule_is_deterministic():
    a = run_schedule("shm_takeover", n_nodes=2)
    b = run_schedule("shm_takeover", n_nodes=2)
    assert a.ok and b.ok
    assert a.schedule_hash == b.schedule_hash
    assert a.snapshot == b.snapshot
    assert len(a.decisions) > 0


def test_liveness_budget_flags_nonquiescing_schedule():
    out = run_schedule("shm_takeover", n_nodes=2, max_decisions=5)
    assert out.error_kind == "DeadlockError"
    assert "budget" in out.error


def test_explorer_rejects_large_machines():
    with pytest.raises(ConfigError):
        explore_scenario("shm_takeover", n_nodes=8, max_schedules=1)


# ----------------------------------------------------------------------
# the headline sweep: >= 100 distinct schedules, POR pruning, 3 oracles
# ----------------------------------------------------------------------


def test_coherence_sweep_100_distinct_schedules_clean():
    res = explore_scenario("shm_takeover", n_nodes=2, max_schedules=110)
    assert res.schedules_run == 110
    assert len(res.distinct) >= 100
    assert res.pruned > 0          # POR actually pruned commuting pairs
    assert res.clean               # sanitizers + check + invariance
    assert res.baseline is not None


# ----------------------------------------------------------------------
# PR 7 regression: sP service-queue overflow barrier hang
# ----------------------------------------------------------------------

_BURST = {"queue_depth": 2}


def test_overflow_drop_model_found_by_explorer():
    res = explore_scenario("sync_burst", params=_BURST, n_nodes=4,
                           model="overflow_drop", max_schedules=2)
    assert res.violations
    assert res.violations[0].error_kind == "DeadlockError"


def test_overflow_witness_replays_to_same_violation():
    res = explore_scenario("sync_burst", params=_BURST, n_nodes=4,
                           model="overflow_drop", max_schedules=1)
    witness = res.violations[0]
    doc = parse_trace(dump_trace(trace_document(
        "sync_burst", _BURST, 4, 0, "all", "overflow_drop",
        witness.choices)))
    replayed = replay_trace(doc)
    assert replayed.error_kind == "DeadlockError"
    assert replayed.error == witness.error


def test_sync_burst_clean_sweep_on_current_code():
    res = explore_scenario("sync_burst", params=_BURST, n_nodes=2,
                           max_schedules=15)
    assert res.clean
    assert res.baseline.result["all_released"]


# ----------------------------------------------------------------------
# PR 9 regression: FLUSH-vs-KILL Modified-line loss at the home
# ----------------------------------------------------------------------


def test_kill_grant_model_found_by_explorer():
    res = explore_scenario("shm_takeover", n_nodes=2, model="kill_grant",
                           max_schedules=2)
    assert res.violations
    v = res.violations[0]
    assert v.error_kind == "CheckFailure"
    assert "home stores lost" in v.error


def test_kill_grant_witness_replays_deterministically():
    res = explore_scenario("shm_takeover", n_nodes=2, model="kill_grant",
                           max_schedules=1)
    witness = res.violations[0]
    doc = parse_trace(dump_trace(trace_document(
        "shm_takeover", {}, 2, 0, "all", "kill_grant", witness.choices)))
    first, second = replay_trace(doc), replay_trace(doc)
    assert first.error_kind == second.error_kind == "CheckFailure"
    assert first.error == second.error == witness.error


def test_shm_takeover_clean_without_model():
    res = explore_scenario("shm_takeover", n_nodes=2, max_schedules=15)
    assert res.clean
    assert res.baseline.result["ok"]


# ----------------------------------------------------------------------
# behavior models restore their flags
# ----------------------------------------------------------------------


def test_behavior_model_restores_flags():
    import repro.firmware.msg as msg
    import repro.firmware.scoma as scoma

    with behavior_model("overflow_drop"):
        assert msg.REDELIVER_SP_OVERFLOW is False
    assert msg.REDELIVER_SP_OVERFLOW is True
    with behavior_model("kill_grant"):
        assert scoma.GRANT_PRESERVES_HOME_STORES is False
    assert scoma.GRANT_PRESERVES_HOME_STORES is True
    with pytest.raises(ConfigError):
        with behavior_model("unknown"):
            pass


def test_guided_policy_prefix_divergence_detected():
    # a prefix choice past the ready-set size must fail loudly, not
    # silently clamp — that is how stale traces surface
    out = run_schedule("shm_takeover", n_nodes=2, prefix=[99])
    assert out.error_kind == "SimulationError"
    assert "diverged" in out.error


def test_guided_policy_records_decisions():
    policy = GuidedPolicy()
    assert policy.decisions == []
    assert policy.schedule_hash == policy.schedule_hash  # stable


def test_cli_replays_a_trace_file(tmp_path, capsys):
    """``python -m repro.explore replay``: re-runs a saved trace and
    prints the verdict (the CLI's only path to :func:`replay_trace`)."""
    from repro.explore.__main__ import _parse_params, main

    params = _parse_params(["queue_depth=2", "ratio=0.5", "flag=true",
                            "name=x"])
    assert params == {"queue_depth": 2, "ratio": 0.5, "flag": True,
                      "name": "x"}
    path = tmp_path / "trace.json"
    path.write_text(dump_trace(trace_document(
        "sync_burst", {"queue_depth": 2}, 2, 0, "all", None, [])))
    assert main(["replay", str(path), "--json"]) == 0
    assert '"ok": true' in capsys.readouterr().out
