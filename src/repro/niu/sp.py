"""The service processor (sP): the NIU's embedded firmware engine.

A 604-class processor that "is capable of controlling all aspects of NIU
operation".  The model runs *firmware handlers* — cost-annotated Python
coroutines registered per event kind — under a dispatch kernel that
polls the sBIU event queue, exactly the structure of real NIU firmware.

Occupancy is the first-class output: the sP's :class:`BusyTracker`
accumulates time spent dispatching and executing handlers, which is what
the paper's §6 experiments compare across block-transfer approaches
("firmware engine occupancy is extremely important and can strongly
color experimental results").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Optional, Tuple

from repro.common.config import FirmwareCostConfig, ProcessorConfig
from repro.common.errors import FirmwareError

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.ctrl import Ctrl
    from repro.niu.sbiu import SBiu
    from repro.sim.engine import Engine
    from repro.sim.stats import StatsRegistry
    from repro.sim.trace import Tracer

#: a firmware handler: ``handler(sp, event) -> generator``.
FirmwareHandler = Callable[["ServiceProcessor", Tuple], Generator]


class ServiceProcessor:
    """Firmware dispatch kernel + execution-cost model."""

    def __init__(
        self,
        engine: "Engine",
        proc_config: ProcessorConfig,
        fw_config: FirmwareCostConfig,
        sbiu: "SBiu",
        ctrl: "Ctrl",
        stats: "StatsRegistry",
        node_id: int,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.engine = engine
        self.proc = proc_config
        self.fw = fw_config
        self.sbiu = sbiu
        self.ctrl = ctrl
        self.stats = stats
        self.node_id = node_id
        self.tracer = tracer
        self.name = f"sp{node_id}"
        self.busy = stats.busy_tracker(f"{self.name}.busy")
        self._handlers: Dict[str, FirmwareHandler] = {}
        #: shared state between firmware modules (directories, DMA engine
        #: descriptors, mapping tables...) — firmware "globals".
        self.state: Dict[str, Any] = {}
        self.dispatched = 0
        self.unhandled = 0
        #: set by fault injection when this node dies or the sP wedges:
        #: the kernel stops dispatching (checked between events only — a
        #: handler mid-flight finishes, like a real halt at the next fetch).
        self.halted = False
        self._started = False
        #: protocol sanitizer hook (None = checks disabled, zero cost);
        #: reliable firmware notifies it of tx-window and rx-seq events.
        self.sanitizer = None

    # -- firmware installation -------------------------------------------------

    def register(self, kind: str, handler: FirmwareHandler) -> None:
        """Install (or replace) the handler for one event kind.

        Replacement is legitimate reconfiguration — "with experimentation
        on the machine, it can be reconfigured" — and tests use it to
        inject failures.
        """
        self._handlers[kind] = handler

    def handler_for(self, kind: str) -> FirmwareHandler:
        """Installed handler for ``kind`` (raises when absent)."""
        try:
            return self._handlers[kind]
        except KeyError:
            raise FirmwareError(f"{self.name}: no firmware for event {kind!r}")

    # -- execution-cost primitives (used inside handlers) -------------------------

    def compute(self, n_insns: int) -> float:
        """Model ``n_insns`` instructions of straight-line firmware: the
        float sleep a handler yields (``yield sp.compute(n)``)."""
        return self.proc.insn_ns(n_insns)

    # -- the dispatch kernel ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the firmware kernel loop."""
        if self._started:
            return
        self._started = True
        self.engine.process(self._kernel(), name=f"{self.name}.kernel", daemon=True)

    def _kernel(self):
        tr = self.tracer
        while not self.halted:
            event = yield self.sbiu.events.get()  # idle while waiting
            if self.halted:
                return
            self.busy.begin()
            kind = event[0]
            span = (tr.span(f"sp.{kind}", source=self.name,
                            node=self.node_id, track="sP")
                    if tr is not None and tr.active else None)
            try:
                yield self.compute(self.fw.dispatch_insns)
                handler = self._handlers.get(kind)
                if handler is None:
                    self.unhandled += 1
                    self.stats.counter(f"{self.name}.unhandled").incr()
                else:
                    yield from handler(self, event)
                self.dispatched += 1
            finally:
                self.busy.end()
                if span is not None:
                    span.end()
