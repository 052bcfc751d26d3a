"""``repro.obs`` — the unified observability layer.

The measurement subsystem the evaluation methodology runs on: percentile
histograms for every latency site, typed span tracing rendered as
Perfetto timelines (one track per aP/sP/queue/link), schema-versioned
metrics snapshots for benchmarks, and periodic queue-depth sampling.

Typical use::

    machine = repro.StarTVoyager(repro.default_config(n_nodes=2))
    machine.obs.enable("niu", "mp", "sp", "net")
    ...  # run a workload
    machine.obs.export_perfetto("trace.json")   # open in ui.perfetto.dev
    machine.obs.snapshot()  # p50/p90/p99 and friends, as a dict
"""

from repro.obs.core import Observability
from repro.common.histogram import (
    Histogram,
    bucket_bounds,
    bucket_index,
    bucket_mid,
)
from repro.obs.perfetto import export_perfetto, trace_events
from repro.obs.sampler import QueueSampler
from repro.obs.snapshot import (
    METRICS_SCHEMA,
    METRICS_SCHEMA_VERSION,
    comparable,
    metrics_snapshot,
    strip_wall,
)

__all__ = [
    "Observability",
    "Histogram",
    "bucket_index",
    "bucket_bounds",
    "bucket_mid",
    "QueueSampler",
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "metrics_snapshot",
    "strip_wall",
    "comparable",
    "export_perfetto",
    "trace_events",
]
