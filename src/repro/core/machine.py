"""The assembled StarT-Voyager cluster: the library's top-level object.

:class:`StarTVoyager` builds the engine, statistics, the Arctic network,
every node board, installs translation tables and default firmware, and
offers program execution and measurement helpers.  Everything a user of
the library touches starts here::

    from repro import StarTVoyager, default_config

    machine = StarTVoyager(default_config(n_nodes=2))

    def hello(api):
        yield from api.compute(10)
        return api.node_id

    procs = [machine.spawn(n, hello) for n in range(2)]
    machine.run()

One validated :class:`~repro.common.config.MachineConfig` fully
describes a machine — including whether the shipped firmware image is
loaded (``install_firmware``) and the S-COMA home map
(``scoma_home_of``).  Measurement goes through :meth:`metrics` (the
schema-versioned snapshot) and the :class:`~repro.obs.Observability`
facade at :attr:`obs`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Union

from repro.analysis.sanitize import resolve_sanitizers
from repro.collectives.plan import binomial_tree
from repro.common.config import MachineConfig, default_config
from repro.net.packet import PRIORITY_HIGH, PRIORITY_LOW
from repro.net.network import ArcticNetwork
from repro.niu.niu import (
    SP_PROTOCOL_QUEUE,
    SP_SERVICE_QUEUE,
    needs_raw_addressing,
    vdst_for,
)
from repro.niu.translation import TranslationEntry
from repro.node.node import NodeBoard
from repro.obs.core import Observability
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.stats import StatsRegistry
from repro.sim.trace import Tracer
from repro.firmware import HomeMap, install_default_firmware

class StarTVoyager:
    """A cluster of StarT-Voyager nodes on an Arctic fat tree.

    Construction is fully described by one validated
    :class:`~repro.common.config.MachineConfig` — including firmware
    installation (``install_firmware``) and the S-COMA home map
    (``scoma_home_of``), which earlier revisions accepted as loose
    constructor kwargs.
    """

    def __init__(
        self,
        config: Optional[Union[MachineConfig, int]] = None,
    ) -> None:
        if config is None:
            config = default_config()
        elif isinstance(config, int):
            config = default_config(n_nodes=config)
        config.validate()
        self.config = config
        self.engine = Engine()
        self.stats = StatsRegistry(self.engine)
        self.tracer = Tracer(self.engine)
        self.obs = Observability(self)
        self.network: Optional[ArcticNetwork] = None
        if config.n_nodes > 1:
            self.network = ArcticNetwork(
                self.engine, config.network, config.n_nodes,
                seed=config.seed, stats=self.stats, tracer=self.tracer,
            )
        self.nodes: List[NodeBoard] = [
            NodeBoard(
                self.engine, config, i,
                self.network.port(i) if self.network else None,
                # one stats scope per node: float-accumulator partials
                # merge in canonical scope order
                self.stats.scoped(f"n{i}"), self.tracer,
            )
            for i in range(config.n_nodes)
        ]
        self._install_translation()
        if config.install_firmware:
            # one S-COMA home map and one collectives tree per machine,
            # shared read-only by its nodes
            home_map = HomeMap.for_machine(
                self.nodes[0], config.n_nodes, config.scoma_home_of)
            coll_plan = binomial_tree(config.n_nodes)
            for node in self.nodes:
                install_default_firmware(node, config.n_nodes, home_map,
                                         coll_plan)
        for node in self.nodes:
            node.start()
        #: fault injector, armed when the config carries a fault plan
        #: (``config.faults``); None on a healthy machine.
        self.fault_injector = None
        if config.faults is not None:
            from repro.faults.inject import FaultInjector

            config.faults.validate(config.n_nodes)
            self.fault_injector = FaultInjector(self, config.faults)
            self.fault_injector.arm()
        #: runtime invariant checkers (:mod:`repro.analysis.sanitize`);
        #: None unless ``config.sanitize`` or ``REPRO_SANITIZE`` names
        #: any — an unsanitized machine carries no checker state at all.
        self.sanitizers = None
        sanitize = resolve_sanitizers(config.sanitize)
        if sanitize:
            from repro.analysis.sanitize import SanitizerLayer

            self.sanitizers = SanitizerLayer(self, sanitize)
            self.sanitizers.install()
        #: lazy in-network-computing context (:mod:`repro.sync`).
        self._sync_fabric = None

    # -- construction helpers ---------------------------------------------------

    def _install_translation(self) -> None:
        """Populate every node's translation table with the global
        ``vdst = node*16 + queue`` convention (protocol queues ride the
        high network priority).

        Machines beyond 16 nodes exceed the byte-vdst packing, so they
        run kernel-mode RAW addressing instead: every tx queue is marked
        ``allow_raw`` and senders put the physical node and destination
        queue directly in the header (see
        :func:`repro.niu.niu.needs_raw_addressing`).  This is the one
        place the choice is made: ``ctrl.raw_addressing`` records it for
        :meth:`repro.mp.basic.BasicPort.send_to` and
        :func:`repro.firmware.base.fw_send_to`."""
        for node in self.nodes:
            ctrl = node.ctrl
            ctrl.raw_addressing = needs_raw_addressing(self.config.n_nodes)
            if ctrl.raw_addressing:
                for q in ctrl.tx_queues:
                    q.allow_raw = True
                continue
            for dst in range(self.config.n_nodes):
                for queue in range(16):
                    priority = (
                        PRIORITY_HIGH
                        if queue in (SP_SERVICE_QUEUE, SP_PROTOCOL_QUEUE)
                        else PRIORITY_LOW
                    )
                    node.ctrl.table.install(
                        vdst_for(dst, queue),
                        TranslationEntry(True, dst, queue, priority),
                    )

    def sync_fabric(self):
        """The machine's scalable-synchronization context (lazy
        singleton; see :class:`repro.sync.api.SyncFabric`).  Creating it
        installs the sync firmware cluster-wide; combining stages appear
        on switches only as groups are planned through them."""
        if self._sync_fabric is None:
            from repro.sync.api import SyncFabric

            self._sync_fabric = SyncFabric(self)
        return self._sync_fabric

    # -- execution ------------------------------------------------------------------

    def node(self, i: int) -> NodeBoard:
        """Node board ``i``."""
        return self.nodes[i]

    def spawn(self, node: int, program: Callable[..., Generator],
              *args: Any, name: Optional[str] = None, pid: int = 0) -> Process:
        """Run ``program(api, *args)`` on node ``node``'s aP.

        ``pid`` tags the program's bus operations for queue-ownership
        protection (0 = kernel, accepted by every queue).
        """
        return self.nodes[node].ap.run(program, *args, name=name, pid=pid)

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation (see :meth:`repro.sim.engine.Engine.run`)."""
        return self.engine.run(until)

    def run_until(self, event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` (often a spawned process) triggers."""
        return self.engine.run_until_triggered(event, limit)

    def run_all(self, procs: List[Process], limit: Optional[float] = None
                ) -> List[Any]:
        """Run until every listed process finishes; return their values."""
        joined = self.engine.all_of(procs)
        return self.engine.run_until_triggered(joined, limit)

    @property
    def now(self) -> float:
        """Current simulated time in ns."""
        return self.engine.now

    # -- measurement ---------------------------------------------------------------------

    def metrics(self, include_config: bool = True) -> dict:
        """The machine's schema-versioned metrics snapshot.

        Counters, accumulators with p50/p90/p99 percentiles, busy times,
        and per-node aP/sP occupancy — see
        :mod:`repro.obs.snapshot` for the exact schema.
        """
        return self.obs.snapshot(include_config=include_config)
