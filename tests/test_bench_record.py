"""The ``startv.bench`` record and the ``python -m repro.bench golden``
gate: one bench kind, wall-free records, hashing that names what moved,
and failing claims and gates that fail the run."""

import ast
import itertools
import json
import os
import types

import pytest

from repro.bench import cli, golden
from repro.bench.harness import strip_wall, write_record
from repro.scenarios import ExpressScenario

#: a four-node traffic sweep: two KV points, so ``--jobs 2`` really
#: fans out over a process pool.
TRAFFIC = ["traffic", "--nodes", "4", "--rates", "20000,400000",
           "--per-node", "2", "--steps", "1", "--blocks", "1",
           "--skip-parity", "--emit-metrics"]


def _record(path):
    with open(path) as fh:
        return json.load(fh)


def test_records_equal_across_jobs_and_clock_only_in_wall(tmp_path,
                                                          monkeypatch):
    """A jobs-1 run on the real clock and a jobs-2 run on a clock that
    jumps 1000 s per read write the same record once ``wall`` and
    ``provenance`` are dropped — so no other field reads the clock."""
    cli.main([*TRAFFIC, "--jobs", "1", "--json", str(tmp_path / "a.json")])
    fake = itertools.count(start=1e6, step=1000.0).__next__
    traffic = cli.load_bench("traffic")
    monkeypatch.setattr(traffic, "time", types.SimpleNamespace(
        monotonic=fake))
    monkeypatch.setattr("repro.sim.engine.perf_counter", fake)
    cli.main([*TRAFFIC, "--jobs", "2", "--json", str(tmp_path / "b.json")])

    a, b = _record(tmp_path / "a.json"), _record(tmp_path / "b.json")
    assert a["schema"] == "startv.bench" and a["schema_version"] == 1
    assert set(a["provenance"]) == {"commit", "cpus", "python"}
    assert a["wall"] != b["wall"]
    assert a["sim"]["kv_points"][0]["snapshot"]["schema"] == "startv.metrics"
    assert strip_wall(a) == strip_wall(b)


def test_golden_hash_names_the_moved_entry_and_sim_key(tmp_path,
                                                       monkeypatch):
    entry = ("scenario.express", golden._scenario("express"))
    status, before = golden.run_entry(*entry, str(tmp_path))
    assert status == 0
    result = ExpressScenario.result
    monkeypatch.setattr(ExpressScenario, "result",
                        lambda self, *args: result(self, *args) + 1.0)
    status, after = golden.run_entry(*entry, str(tmp_path))
    assert status == 0
    assert golden.moved({entry[0]: before}, {entry[0]: after}) == [
        ("scenario.express", ["result"])]
    assert golden.moved({entry[0]: before}, {entry[0]: before}) == []


def test_golden_exits_nonzero_when_an_entry_gate_fails(tmp_path,
                                                       monkeypatch):
    entry = ("scenario.express", golden._scenario("express"))
    monkeypatch.setattr(golden, "entries", lambda: [entry])
    monkeypatch.setattr(cli, "repo_root", lambda: str(tmp_path))
    assert cli.main(["golden"]) == 0
    monkeypatch.setattr(ExpressScenario, "check",
                        lambda self, result: "broken on purpose")
    assert cli.main(["golden"]) == 1
    # the failing entry is still hashed, so the diff shows it too
    assert list(_record(tmp_path / "GOLDEN.json")) == ["scenario.express"]
    assert cli.main(["golden", "--write"]) == 2


def test_record_refuses_a_value_without_a_stable_json_form(tmp_path):
    write_record(str(tmp_path / "ok.json"), "t", {}, {"raw": b"\x01"}, {})
    assert _record(tmp_path / "ok.json")["sim"]["raw"] == "b'\\x01'"
    with pytest.raises(TypeError, match="set"):
        write_record(str(tmp_path / "bad.json"), "t", {}, {"s": {"a"}}, {})
    assert not (tmp_path / "bad.json").exists()


def test_every_bench_is_a_cli_worker_hashed_by_golden():
    """One bench kind: every ``benchmarks/bench_*.py`` registers
    ``BENCH`` and has a golden entry (``engine``, wall-clock only,
    excepted), and nothing under ``benchmarks/`` imports pytest."""
    benches = cli.discover()
    hashed = {name for name, _runner in golden.entries()}
    assert "blocks" in benches and "fig3_latency" not in benches
    for name in benches:
        assert set(cli.load_bench(name).BENCH) == {"summary", "flags", "run"}
        assert name == "engine" or name in hashed, name
    for entry in os.listdir(cli.benchmarks_dir()):
        if not entry.endswith(".py"):
            continue
        with open(os.path.join(cli.benchmarks_dir(), entry)) as fh:
            tree = ast.parse(fh.read())
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert "pytest" not in imported, entry
        assert "conftest" not in entry


def _fake_block_point(spec):
    """A block-transfer row that meets every §6 claim but one: approach
    2 out-streams approach 3 at 64 KB."""
    approach, size = spec
    per_byte = {1: 2.0, 2: 1.5, 3: 1.0, 4: 0.3, 5: 0.3}[approach]
    return {
        "approach": approach,
        "size_bytes": size,
        "notify_latency_ns": per_byte * size + (0 if approach == 1 else 1000),
        "data_ready_latency_ns": size + 1000.0,
        "bandwidth_mb_s": {1: 50.0, 2: 80.0, 3: 70.0}.get(approach, 90.0),
        "verified": True,
        "occupancy": {"sender_ap": 0.9 if approach == 1 else 0.0,
                      "sender_sp": 0.5 if approach == 2 else 0.0,
                      "receiver_ap": 1.0,
                      "receiver_sp": 0.6 if approach == 4 else 0.0},
    }


def _fake_collective_point(spec):
    """A collective row that meets every scaling claim but one: the NIC
    barrier grows linearly."""
    name, n_nodes, algo, _repeats = spec
    log = n_nodes.bit_length() - 1
    latency = {"flat": 1000.0 * n_nodes, "tree": 1000.0 * log,
               "nic": 1000.0 * log + 5000.0}[algo]
    if (name, algo) == ("barrier", "nic"):
        latency = 500.0 * n_nodes
    return {"collective": name, "n_nodes": n_nodes, "algo": algo,
            "latency_ns": latency}


def test_a_broken_claim_fails_its_bench_and_golden(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(cli.load_bench("blocks"), "block_transfer_point",
                        _fake_block_point)
    monkeypatch.setattr(cli.load_bench("collectives"), "collective_point",
                        _fake_collective_point)
    assert cli.main(["blocks", "--json", str(tmp_path / "b.json")]) == 1
    assert cli.main(["collectives", "--json", str(tmp_path / "c.json")]) == 1
    failed = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("FAIL: ")]
    assert failed == [
        "FAIL: F4: A3 bandwidth > A2 bandwidth at 64 KB",
        "FAIL: barrier: nic last increment < 3 x first (sub-linear)"]

    table = [(name, golden._bench(name)) for name in ("blocks",
                                                      "collectives")]
    assert golden.run_golden(table, str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "FAIL: golden entry blocks" in err
    assert "FAIL: golden entry collectives" in err
    assert sorted(_record(tmp_path / "GOLDEN.json")) == ["blocks",
                                                         "collectives"]


def _pid_point(spec):
    """A traffic point stand-in that leaves its process id behind."""
    with open(os.path.join(os.environ["PID_DIR"], str(os.getpid())), "w"):
        pass
    return {"snapshot": {"sim": {"events_executed": 1}}}


def test_traffic_parity_runs_in_pool_workers(tmp_path, monkeypatch):
    """The determinism gate compares the inline run against runs made in
    other processes, not against a second inline run."""
    traffic = cli.load_bench("traffic")
    monkeypatch.setattr(traffic, "traffic_point", _pid_point)
    monkeypatch.setenv("PID_DIR", str(tmp_path))
    args = types.SimpleNamespace(per_node=1, transport="basic",
                                 reliable=False, nodes=2, seed=0)
    baseline = {"rate_rps": 1.0,
                "snapshot": {"sim": {"events_executed": 1}}}
    assert traffic.parity_checks(args, baseline) == {
        "rate_rps": 1.0, "jobs4_identical": True}
    pids = {int(name) for name in os.listdir(tmp_path)}
    assert pids and os.getpid() not in pids
