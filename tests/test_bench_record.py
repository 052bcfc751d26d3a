"""The ``startv.bench`` record and the ``python -m repro.bench golden``
gate: wall-free records, hashing that names what moved, and failing
gates that fail the run."""

import itertools
import json
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
