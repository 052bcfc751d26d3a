"""Production-traffic application layer: serving workloads with SLOs.

The platform subsystems answer "how fast is the mechanism"; this
package asks the question an operator would: *what latency distribution
does an application see under production-shaped load?*  Three
applications run on the messaging and firmware layers:

* a distributed **KV store** (:mod:`repro.traffic.kv`) — consistent-hash
  sharded, served by sP firmware, Zipf-skewed keys, every request one
  Basic message;
* a **parameter-server / allreduce training loop**
  (:mod:`repro.traffic.train`) — the same synchronous step through a
  central server or through flat/tree/nic/switch collectives;
* **microservice fan-out trees** (:mod:`repro.traffic.usvc`) — per-stage
  service times, tail-at-scale request shapes.

Load is open-loop (:mod:`repro.traffic.load`): seeded Poisson arrivals
with per-node schedules that depend only on ``(seed, node)`` —
deterministic at any ``--jobs`` count — or an explicit trace.  Per-request accounting
(:mod:`repro.traffic.slo`) flows into the ``traffic`` section of
``machine.metrics()`` with goodput and p50/p99/p99.9.
"""

from repro.traffic.kv import KvClient, home_node
from repro.traffic.load import (
    PoissonArrivals,
    TraceRecord,
    ZipfKeys,
    make_kv_trace,
    node_slice,
)
from repro.traffic.scenarios import (
    TRAFFIC_SCENARIOS,
    KvScenario,
    TrainScenario,
    UsvcScenario,
)
from repro.traffic.slo import DEFAULT_SLO_NS, SloRecorder
from repro.traffic.train import TrainJob, block_home
from repro.traffic.usvc import UsvcClient

__all__ = [
    "DEFAULT_SLO_NS",
    "KvClient",
    "KvScenario",
    "PoissonArrivals",
    "SloRecorder",
    "TRAFFIC_SCENARIOS",
    "TraceRecord",
    "TrainJob",
    "TrainScenario",
    "UsvcClient",
    "UsvcScenario",
    "ZipfKeys",
    "block_home",
    "home_node",
    "make_kv_trace",
    "node_slice",
]
