"""sBIU: the sP-side bus interface unit (FPGA).

The service processor reaches everything through the sBIU: the sSRAM
bus-side port, CTRL's immediate state interface, and the two local
command queues.  Events flowing the other way — aBIU-forwarded bus
operations (NUMA/S-COMA), receive-queue arrivals, miss-queue alarms,
protection interrupts — land in one FIFO the firmware kernel drains;
that FIFO is the model of "the aBIU communicates with the sBIU [through]
one last queue" plus CTRL's interrupt lines.

The sP is the only master on its 604 bus, so no full bus model is needed
on that side; each access is charged a fixed bus-operation cost (see
DESIGN.md §2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Tuple

from repro.common.config import MachineConfig
from repro.mem.sram import PORT_BUS, DualPortedSRAM
from repro.niu.commands import Command
from repro.sim.store import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.ctrl import Ctrl
    from repro.sim.engine import Engine
    from repro.sim.events import Event

#: fixed sP bus-operation overhead, in bus cycles (arbitration-free bus).
SP_BUSOP_CYCLES = 2


class SBiu:
    """The service processor's window into the NIU."""

    def __init__(
        self,
        engine: "Engine",
        config: MachineConfig,
        ctrl: "Ctrl",
        ssram: DualPortedSRAM,
        node_id: int,
    ) -> None:
        self.engine = engine
        self.config = config
        self.ctrl = ctrl
        self.ssram = ssram
        self.node_id = node_id
        self.name = f"sbiu{node_id}"
        #: the event FIFO the firmware kernel drains.
        self.events = Store(engine, capacity=None, name=f"{self.name}.events")
        ctrl.post_sp_event = self.post_event

    # -- inbound events ------------------------------------------------------

    def post_event(self, event: Tuple) -> None:
        """Deliver one event/interrupt to firmware (never blocks the poster)."""
        self.events.try_put(event)

    # -- timing ---------------------------------------------------------------

    def _busop_ns(self) -> float:
        return SP_BUSOP_CYCLES * self.config.bus.cycle_ns

    # -- sSRAM access (bus-side port) --------------------------------------------

    def read_ssram(self, offset: int, size: int
                   ) -> Generator["Event", None, bytes]:
        """Timed sSRAM read on behalf of the sP."""
        yield self._busop_ns()
        return (yield from self.ssram.read(PORT_BUS, offset, size))

    def write_ssram(self, offset: int, data: bytes
                    ) -> Generator["Event", None, None]:
        """Timed sSRAM write on behalf of the sP."""
        yield self._busop_ns()
        yield from self.ssram.write(PORT_BUS, offset, data)

    # -- CTRL immediate interface ----------------------------------------------

    def immediate(self, fn: Callable[[], Any]
                  ) -> Generator["Event", None, Any]:
        """Run one immediate CTRL state access (read/update), timed.

        ``fn`` is a zero-time closure over CTRL state — e.g.
        ``lambda: ctrl.read_pointer(...)`` or a sysreg write.  The paper's
        "immediate command interface allows the sP to read and update CTRL
        state".
        """
        yield self._busop_ns() + self.ctrl.op_ns
        return fn()

    # -- command queues -----------------------------------------------------------

    def enqueue_command(self, which: int, cmd: Command
                        ) -> Generator["Event", None, None]:
        """Issue one command into a local CTRL command queue (in order)."""
        yield self._busop_ns()
        yield self.ctrl.cmdqs[which].enqueue(cmd)
