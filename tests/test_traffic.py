"""The serving-traffic applications (`repro.traffic`).

Correctness of the three applications, the ``traffic`` metrics
section, the hot-key incast regression, and the determinism contract:
byte-identical wall-stripped metrics across ``--jobs`` 1/4, distinct
seeds giving distinct runs.
"""

import pytest

import repro
from repro.bench.harness import comparable, run_sweep
from repro.common.config import NIUConfig
from repro.common.errors import ConfigError
from repro.traffic import (KvClient, KvScenario, TrainJob, UsvcClient,
                           home_node)
from repro.traffic.load import TraceRecord, make_kv_trace, node_slice
from repro.traffic.train import block_home


def _machine(n, **overrides):
    return repro.StarTVoyager(repro.default_config(n_nodes=n, **overrides))


def _run_kv(machine, trace):
    clients = []
    procs = []
    for node in range(machine.config.n_nodes):
        client = KvClient(machine, machine.node(node))
        clients.append(client)
        for prog in client.open_loop(node_slice(trace, node)):
            procs.append(machine.spawn(node, prog))
    machine.run_all(procs, limit=1e10)
    return clients


def _store(machine, node):
    return machine.node(node).sp.state["traffic"].store


# ----------------------------------------------------------------------
# KV store
# ----------------------------------------------------------------------


def test_kv_put_then_get():
    """A PUT lands in the home shard's store and a later GET completes."""
    n = 4
    machine = _machine(n)
    key = 5
    trace = [TraceRecord(1_000.0 * (i + 1), node, op, key, size)
             for i, (node, op, size) in enumerate(
                 [(0, "put", 8), (1, "get", 0), (2, "put", 8),
                  (3, "get", 0)])]
    clients = _run_kv(machine, trace)
    home = home_node(key, n)
    assert len(_store(machine, home)[key]) == 8
    for c in clients:
        assert c.slo.completed.value == c.slo.offered.value
        assert not c.inflight


def test_kv_get_miss_completes():
    machine = _machine(2)
    clients = _run_kv(machine, [TraceRecord(1_000.0, 0, "get", 99, 0)])
    assert sum(c.slo.completed.value for c in clients) == 1


def test_kv_client_rejects_bad_configs():
    with pytest.raises(ConfigError):
        KvScenario(transport="tagon")


def test_kv_slo_section_in_metrics():
    machine = _machine(4)
    trace = make_kv_trace(4, 8, 100_000.0, seed=1, put_fraction=0.5)
    _run_kv(machine, trace)
    section = machine.metrics(include_config=False)["traffic"]
    kv = section["kv"]
    assert kv["offered"] == len(trace) == 32
    assert kv["completed"] == 32
    assert 0.0 <= kv["goodput"] <= 1.0
    lat = kv["latency_ns"]
    assert lat["n"] == 32
    for k in ("p50", "p99", "p999", "max"):
        assert lat[k] > 0
    assert "ps" not in section  # only apps that ran appear


def test_kv_incast_hot_key_survives_shallow_service_queue():
    """64 clients fan into one home node's sP service queue at once;
    the miss-queue redelivery path must absorb the burst (a drop would
    leave a client hanging forever)."""
    n = 64
    machine = _machine(n, niu=NIUConfig(queue_depth=4))
    key = 0
    trace = [TraceRecord(100.0, node, "put" if node % 2 else "get", key,
                         8 if node % 2 else 0)
             for node in range(n)]
    clients = _run_kv(machine, trace)
    assert sum(c.slo.completed.value for c in clients) == n
    counters = machine.metrics(include_config=False)["counters"]
    redelivered = sum(v for k, v in counters.items()
                      if k.endswith(".missq_redelivered"))
    dropped = sum(v for k, v in counters.items()
                  if k.endswith(".missq_dropped"))
    assert redelivered > 0 and dropped == 0
    served = sum(v for k, v in counters.items()
                 if k.startswith("traffic.kv.s") and k.endswith(".served"))
    assert served == n


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------


def test_ps_training_weights_are_exact():
    """Every worker's gradient for every (step, block) lands exactly
    once: the final weights equal the closed-form sum."""
    n, steps, blocks = 4, 3, 2
    machine = _machine(n)
    job = TrainJob(machine, mode="ps", n_blocks=blocks, steps=steps)
    procs = [machine.spawn(i, job.worker(i)) for i in range(n)]
    machine.run_all(procs, limit=1e10)
    for block in range(blocks):
        expected = sum(node + step + block + 1
                       for node in range(n) for step in range(steps))
        home = block_home(block, n)
        st = machine.node(home).sp.state["traffic"]
        assert st.ps_weights[block] == expected
    t = machine.metrics(include_config=False)["traffic"]["ps"]
    assert t["offered"] == t["completed"] == n * steps


@pytest.mark.parametrize("algo", ["flat", "tree", "nic", "switch"])
def test_allreduce_training_completes(algo):
    machine = _machine(4)
    job = TrainJob(machine, mode="allreduce", algo=algo, n_blocks=2,
                   steps=2)
    procs = [machine.spawn(i, job.worker(i)) for i in range(4)]
    machine.run_all(procs, limit=1e10)
    t = machine.metrics(include_config=False)["traffic"]["ps"]
    assert t["offered"] == t["completed"] == 8
    assert t["slo_violations"] == 0


def test_train_job_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        TrainJob(_machine(2), mode="federated")


# ----------------------------------------------------------------------
# microservice fan-out
# ----------------------------------------------------------------------


def test_usvc_trees_complete_and_touch_many_stages():
    n = 8
    machine = _machine(n)
    procs = []
    clients = []
    for node in range(n):
        client = UsvcClient(machine, machine.node(node), depth=2, fanout=2)
        clients.append(client)
        records = [TraceRecord(1_000.0 * (node + 1), node, "tree",
                               node, 0)]
        for prog in client.open_loop(records):
            procs.append(machine.spawn(node, prog))
    machine.run_all(procs, limit=1e10)
    for c in clients:
        assert c.slo.completed.value == 1
        assert not c.inflight
    counters = machine.metrics(include_config=False)["counters"]
    stages = sum(v for k, v in counters.items()
                 if k.startswith("traffic.usvc.s"))
    # each depth-2 fanout-2 tree executes 1 + 2 + 4 = 7 service stages
    assert stages == 7 * n


# ----------------------------------------------------------------------
# determinism: jobs 1/4, repeat runs, seeds apart
# ----------------------------------------------------------------------


def _kv_metrics_point(seed):
    """Module-level (picklable) sweep worker: comparable KV metrics."""
    run = repro.run(repro.scenario("traffic_kv", per_node=4,
                                   rate_rps=100_000.0, put_fraction=0.5),
                    n_nodes=8, seed=seed)
    return comparable(run.snapshot)


def test_kv_metrics_identical_across_jobs():
    serial = run_sweep(_kv_metrics_point, [0, 0], jobs=1)
    pooled = run_sweep(_kv_metrics_point, [0, 0], jobs=4)
    assert serial == pooled  # jobs 1 vs 4: byte-identical
    assert serial[0] == serial[1]  # two runs of one seed: byte-identical
    assert serial[0]["traffic"]["kv"]["offered"] == 32


def test_kv_metrics_distinct_across_seeds():
    a = _kv_metrics_point(0)
    b = _kv_metrics_point(1)
    assert a != b
    assert a["traffic"]["kv"]["latency_ns"] != \
        b["traffic"]["kv"]["latency_ns"]


@pytest.mark.parametrize("mode,algo", [("ps", "tree"),
                                       ("allreduce", "switch")])
def test_train_scenario_completes_every_step(mode, algo):
    run = repro.run(repro.scenario("traffic_train", mode=mode, algo=algo,
                                   steps=2, n_blocks=2),
                    n_nodes=4)
    assert run.snapshot["traffic"]["ps"]["completed"] == 8


def test_usvc_scenario_deterministic():
    runs = [repro.run(repro.scenario("traffic_usvc", per_node=2),
                      n_nodes=8, seed=0) for _ in range(2)]
    assert comparable(runs[0].snapshot) == comparable(runs[1].snapshot)
    assert runs[0].snapshot["traffic"]["usvc"]["completed"] == 16
