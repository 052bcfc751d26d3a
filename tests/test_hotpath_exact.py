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
from repro.shard import ShardedMachine, scenario

#: (scenario, kwargs, nodes) -> (events_executed, final _seq, now_ns,
#: sha256 of the comparable snapshot)
PINS = {
    ("traffic_train", (("algo", "nic"), ("mode", "allreduce")), 8): (
        125642, 125642, 301450.16429354844,
        "039479d912fbcbb7669c1e8329014d9cd98da459aed6948a6f372a9fa94d05d8",
    ),
    ("traffic_kv", (), 4): (
        16792, 16792, 79970.70551357562,
        "7cacdeda936eafa79a7768f0c7737fa05e039d376487d501470def2b58545469",
    ),
    ("shm_hash", (), 4): (
        98948, 98948, 437677.40781307913,
        "bfcf49ea6d7d27381580f6dcaf311d0f184c76731b4c29e26c8635b58f8a472c",
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
    machine = ShardedMachine(config, scn, backend="inline")
    run = machine.run()
    engine = machine.machine.engine
    got = (engine.events_executed, engine._seq, run.snapshot["now_ns"],
           _digest(run.snapshot))
    assert got == PINS[key]
