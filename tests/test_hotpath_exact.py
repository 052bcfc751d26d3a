"""Exactness pins for the simulator's hot paths.

The uncached-access fast paths (immediate resource grants without a
yield, the flattened aP -> bus -> aBIU generator chain, memoized handler
and pointer decoding) are host-side optimizations: they must not move a
single scheduled item.  Each stock scenario below is pinned to the values
the straightforward implementation produced: the executed-item count,
the engine's final sequence number (one per scheduled item, so any extra
or missing push shows), the final simulated time, and the sha256 of the
wall-stripped snapshot.

A change that is *meant* to alter simulated behaviour re-records these
pins and says why in its change log.
"""

import hashlib
import json

import pytest

from repro.bench.harness import comparable
from repro.common.config import default_config
from repro.core.machine import StarTVoyager
from repro.faults import FaultPlan, NodeCrash
from repro.faults.inject import FaultInjector
from repro.mp import BasicPort, vdst_for
from repro.obs.snapshot import metrics_snapshot
from repro.scenarios import ScenarioMachine, scenario

#: (scenario, kwargs, nodes) -> (events_executed, final _seq, now_ns,
#: sha256 of the comparable snapshot)
PINS = {
    ("traffic_train", (("algo", "nic"), ("mode", "allreduce")), 8): (
        125642, 125642, 301450.16429354844,
        "704964355a5deeac9a16232fbfb297ce6f273c7ef58c069679b5a56f6e869ad9",
    ),
    ("traffic_kv", (), 4): (
        16792, 16792, 79970.70551357562,
        "17862f15b0c96137e9df110ec93b156379ad7250d2c39792139dd3a9e8bc590a",
    ),
    ("shm_hash", (), 4): (
        98948, 98948, 437677.40781307913,
        "34438154f73475ce8c7da5b989a3da1f6b1e1608d49fb0372d1ff5191370fb39",
    ),
}


def _digest(snapshot):
    core = comparable(json.loads(json.dumps(snapshot, default=repr)))
    blob = json.dumps(core, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(PINS), ids=lambda k: k[0])
def test_stock_scenario_matches_pins(key):
    name, kwargs, n_nodes = key
    scn = scenario(name, **dict(kwargs))
    config = default_config(n_nodes=n_nodes)
    # run_scenario's steps, keeping the machine to read its engine
    scn.prepare(config)
    machine = ScenarioMachine(config, scn)
    run = machine.run()
    engine = machine.machine.engine
    got = (engine.events_executed, engine._seq, run.snapshot["now_ns"],
           _digest(run.snapshot))
    assert got == PINS[key]


#: crash instant -> (events_executed, final _seq, now_ns, sha256 of the
#: comparable snapshot) of :func:`_crash_run`.  Node 1's two programs are
#: both inside a bus operation at 2333 ns and both computing at 2703 ns.
CRASH_PINS = {
    "mid_bus_op": (2333.0, (
        2287, 2287, 9675.063891931355,
        "5851eeb4fd7735c543666af18501d307008835fde61f18486789fef289338444",
    )),
    "mid_compute": (2703.0, (
        2310, 2310, 9675.063891931355,
        "5d1872ca15a4fb291d7edf01b4a138b26a0038dd1a10abfad3f8ebd5d392d85b",
    )),
}


def _generator_chain(gen):
    """Names of a process's nested generators, outermost first."""
    names = []
    while gen is not None:
        names.append(gen.gi_code.co_name)
        gen = gen.gi_yieldfrom
    return names


def _crash_run(crash_ns, monkeypatch):
    """3 nodes: node 1 polls an empty Basic queue and runs a
    store/compute/sleep loop until a NodeCrash kills both programs;
    nodes 0 and 2 trade eight Basic messages each way meanwhile.
    Returns the pin tuple and the victims' generator chains at the
    crash."""
    config = default_config(n_nodes=3)
    config.faults = FaultPlan(seed=1, node_crashes=[
        NodeCrash(node=1, time_ns=crash_ns)])
    machine = StarTVoyager(config)
    ports = [BasicPort(machine.node(n), 0, 0) for n in range(3)]
    chains = []
    crash_board = FaultInjector._crash_board

    def recording_crash(self, node_id):
        chains.extend(_generator_chain(p._gen)
                      for p in machine.node(node_id).ap.programs
                      if p.is_alive)
        crash_board(self, node_id)

    monkeypatch.setattr(FaultInjector, "_crash_board", recording_crash)

    def spin(api):
        while True:
            yield from ports[1].recv(api)

    def worker(api):
        for i in range(1000):
            yield from api.store_u32(0x2000 + 64 * (i % 4), i)
            yield from api.compute(40)
            yield from api.sleep(300)

    def exchange(api, me, peer):
        got = []
        for i in range(8):
            yield from ports[me].send(api, vdst_for(peer, 0), bytes([me, i]))
            got.append((yield from ports[me].recv(api)))
        return got

    machine.spawn(1, spin)
    machine.spawn(1, worker)
    procs = [machine.spawn(0, exchange, 0, 2), machine.spawn(2, exchange, 2, 0)]
    results = machine.run_all(procs, limit=1e9)
    assert [len(r) for r in results] == [8, 8]
    engine = machine.engine
    got = (engine.events_executed, engine._seq, machine.now,
           _digest(metrics_snapshot(machine)))
    return got, chains


@pytest.mark.parametrize("case", sorted(CRASH_PINS))
def test_node_crash_matches_pins(case, monkeypatch):
    crash_ns, pins = CRASH_PINS[case]
    got, chains = _crash_run(crash_ns, monkeypatch)
    assert len(chains) == 2
    if case == "mid_bus_op":
        assert all("transact" in chain for chain in chains), chains
    else:
        assert all(chain[-1] == "compute" for chain in chains), chains
    assert got == pins
