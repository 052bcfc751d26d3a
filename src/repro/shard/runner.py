"""The scenario runner: one scenario, one machine, one event queue.

:class:`ShardedMachine` builds one :class:`~repro.core.machine.StarTVoyager`
from the config, then runs the scenario's phases in order: each phase
spawns its programs (:meth:`~repro.shard.scenarios.ShardScenario.setup`
over every node) and drains the event queue with
:meth:`~repro.sim.engine.Engine.run`, so phase ``p`` starts at the
instant phase ``p - 1`` drained and drain hooks (the sanitizers'
end-of-run checks) fire at every phase drain.  The snapshot is the
machine's ordinary :func:`~repro.obs.snapshot.metrics_snapshot`.

The names are historical: the module once partitioned a machine into
conservative parallel-in-time shards.  DESIGN.md §12 records the
measurements that removed that engine.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.common.config import MachineConfig
from repro.core.machine import StarTVoyager
from repro.obs.snapshot import metrics_snapshot


class ShardRun:
    """Everything a scenario run produced."""

    def __init__(self, snapshot: Dict[str, Any], results: List[Any],
                 windows: int) -> None:
        #: the machine's metrics snapshot.
        self.snapshot = snapshot
        #: the scenario result, as a one-element list.
        self.results = results
        #: how many phases ran, each drained in one :meth:`Engine.run`.
        self.windows = windows


class ShardedMachine:
    """One scenario bound to one freshly built machine.

    The machine is built here, so a caller can reach it through
    :attr:`machine` (to install a schedule policy, say) before
    :meth:`run`.  ``"inline"`` is the only backend.
    """

    def __init__(self, config: MachineConfig, scenario,
                 backend: str = "inline") -> None:
        if backend != "inline":
            raise ValueError(f"unknown backend {backend!r} (only 'inline')")
        self.scenario = scenario
        self.machine = StarTVoyager(config)
        self.ctx: Dict[str, Any] = {}

    def run(self) -> ShardRun:
        """Run every scenario phase to quiescence and snapshot."""
        machine, scenario = self.machine, self.scenario
        nodes = range(machine.config.n_nodes)
        for phase in range(scenario.phases):
            scenario.setup(phase, machine, nodes, self.ctx)
            machine.engine.run()
        result = scenario.result(machine, nodes, self.ctx)
        return ShardRun(metrics_snapshot(machine), [result], scenario.phases)


def run_scenario(scenario, config: Optional[MachineConfig] = None,
                 n_nodes: int = 4, seed: int = 0) -> ShardRun:
    """The front door: run one scenario on a fresh machine.

    Either pass a ready ``config`` or let the helper build a default one
    from ``n_nodes``/``seed``.
    """
    if config is None:
        from repro.common.config import default_config

        config = default_config(n_nodes=n_nodes)
        config.seed = seed
    scenario.prepare(config)
    return ShardedMachine(config, scenario).run()
