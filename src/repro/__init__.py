"""StarT-Voyager reproduction.

A behavioural, cycle-approximate simulator of the SC'98 StarT-Voyager
platform: PowerPC-SMP nodes whose second processor slot holds a flexible
network interface unit (CTRL ASIC + reconfigurable BIU "FPGAs" + an
embedded firmware engine) on the MIT Arctic fat-tree network — plus the
paper's communication mechanisms (Basic/Express/TagOn/DMA message
passing, NUMA and S-COMA shared memory) and its block-transfer
experiments.

Quick start::

    from repro import StarTVoyager, default_config
    machine = StarTVoyager(default_config(n_nodes=2))

Measurement lives behind ``machine.metrics()`` (schema-versioned
snapshot with p50/p90/p99 latencies) and ``machine.obs`` (span tracing,
Perfetto export, queue-depth sampling) — see :mod:`repro.obs`.
"""

from repro.analysis import SANITIZER_NAMES, resolve_sanitizers
from repro.common.config import MachineConfig, ReliabilityConfig, default_config
from repro.core.inspect import describe_machine
from repro.core.machine import StarTVoyager
from repro.faults import FaultPlan, LinkEvent, LinkFault, NodeCrash, SpStall
from repro.lib.mpi import MiniMPI
from repro.obs import (
    Histogram,
    Observability,
    export_perfetto,
    metrics_snapshot,
    write_metrics,
)
from repro.scenarios import ScenarioRun, run_scenario, scenario, scenario_names
from repro.sync import (
    Counter,
    McsLock,
    SyncFabric,
    SyncGroup,
    TasLock,
    TicketLock,
    WorkDeque,
)
from repro.traffic import (
    KvClient,
    SloRecorder,
    TrainJob,
    UsvcClient,
    make_kv_trace,
)

__version__ = "1.4.0"

#: ``run_scenario`` under its front-door name: ``repro.run(...)``.
run = run_scenario

__all__ = [
    # machine construction
    "StarTVoyager",
    "MachineConfig",
    "ReliabilityConfig",
    "default_config",
    # registered scenarios (the run front door)
    "run",
    "run_scenario",
    "scenario",
    "scenario_names",
    "ScenarioRun",
    # fault injection
    "FaultPlan",
    "LinkEvent",
    "LinkFault",
    "NodeCrash",
    "SpStall",
    # programming layers
    "MiniMPI",
    # serving-traffic applications
    "KvClient",
    "TrainJob",
    "UsvcClient",
    "SloRecorder",
    "make_kv_trace",
    # synchronization primitives
    "SyncFabric",
    "SyncGroup",
    "Counter",
    "TasLock",
    "TicketLock",
    "McsLock",
    "WorkDeque",
    # runtime sanitizers
    "SANITIZER_NAMES",
    "resolve_sanitizers",
    # measurement / observability
    "Observability",
    "Histogram",
    "metrics_snapshot",
    "write_metrics",
    "export_perfetto",
    "describe_machine",
    "__version__",
]
