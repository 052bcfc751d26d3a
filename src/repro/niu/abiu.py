"""aBIU: the aP-side bus interface unit (FPGA).

"In the common mode of operation each BIU observes every bus operation
... and activates different finite state machines based on the observed
bus operations.  The BIUs can ignore bus operations, handle the bus
operation completely, forward a processed form of the bus operation to
firmware, execute a series of commands to CTRL, or forward the operation
to the other BIU."

The FPGA's reconfigurability is modeled as a *handler registry*: each
NIU-relevant address region maps to a :class:`BusHandler` (a Python class
standing in for an FPGA state machine).  Installing a different handler
over a region **is** "reprogramming the FPGA" — the experiments in §5/§6
of the paper (reflective memory, Approach-5 clsSRAM updates) do exactly
that, and so do ours.

The aBIU is also a bus *master*: CTRL's command processors and block
units issue aP-bus operations through :meth:`issue` ("an interface that
allows CTRL to issue bus operations to the aP memory bus (through
aBIU)").
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.bus.ops import BusTransaction
from repro.bus.snoop import SNOOP_CLAIM, SNOOP_OK, Snooper, SnoopResult
from repro.common.errors import SimulationError
from repro.mem.address import Region

if TYPE_CHECKING:  # pragma: no cover
    from repro.bus.bus import MemoryBus
    from repro.mem.sram import DualPortedSRAM
    from repro.niu.ctrl import Ctrl
    from repro.sim.engine import Engine
    from repro.sim.events import Event


class BusHandler:
    """One "FPGA state machine": reacts to bus operations on its region."""

    #: diagnostic name.
    handler_name = "handler"

    def decide(self, txn: BusTransaction) -> SnoopResult:
        """Address-tenure verdict (zero simulated time; side effects OK)."""
        raise NotImplementedError

    def serve(self, txn: BusTransaction
              ) -> Generator["Event", None, Optional[bytes]]:
        """Data tenure for claimed transactions (process fragment)."""
        raise NotImplementedError

    def polled_shadow(self, addr: int) -> Optional[Tuple["DualPortedSRAM", int]]:
        """``(bank, offset)`` of the 4-byte SRAM shadow a 4-byte read of
        ``addr`` is served from, once one has been; None when such a read
        is anything more than that timed shadow read."""
        return None


class ABiu(Snooper):
    """The aP bus interface unit of one node's NIU."""

    def __init__(
        self,
        engine: "Engine",
        bus: "MemoryBus",
        ctrl: "Ctrl",
        node_id: int,
    ) -> None:
        self.engine = engine
        self.bus = bus
        self.ctrl = ctrl
        self.node_id = node_id
        self.name = f"abiu{node_id}"
        self.snooper_name = self.name
        self._master = f"niu{node_id}"
        #: installed (region, handler) pairs, sorted by base, and the bases
        self._handlers: List[Tuple[Region, BusHandler]] = []
        self._bases: List[int] = []
        #: address -> covering handler, filled by :meth:`handler_for` for
        #: :attr:`Region.memo` regions; :meth:`install` empties it
        self._handler_memo: Dict[int, BusHandler] = {}
        #: the last (region, handler) a bisect found: a run of accesses
        #: to one large region (DRAM-backed S-COMA, NUMA) skips the bisect
        self._last_hit: Optional[Tuple[Region, BusHandler]] = None
        self._claimed: Dict[int, BusHandler] = {}
        self.observed = 0
        #: a dormant spin polling a register this aBIU serves
        #: (:class:`repro.sim.process.Spin`): any install wakes it first.
        self.waker = None
        bus.attach_snooper(self)
        ctrl.abiu_issue = self.issue

    # -- reconfiguration ----------------------------------------------------

    def install(self, region: Region, handler: BusHandler) -> Optional[BusHandler]:
        """Map ``handler`` over ``region``; returns any handler it replaced.

        Replacing a handler at runtime models reprogramming the FPGA with
        new state machines.  Any install empties the per-address handler
        memo and the last hit, so the next operation on any address sees
        the new table.
        """
        if self.waker is not None:
            self.waker.wake()
        self._handler_memo.clear()
        self._last_hit = None
        for i, (r, old) in enumerate(self._handlers):
            if r.base == region.base and r.size == region.size:
                self._handlers[i] = (region, handler)
                return old
            if not (region.end <= r.base or r.end <= region.base):
                raise SimulationError(
                    f"{self.name}: region {region.name!r} overlaps {r.name!r}"
                )
        self._handlers.append((region, handler))
        self._handlers.sort(key=lambda pair: pair[0].base)
        self._bases = [r.base for r, _h in self._handlers]
        return None

    def handler_for(self, addr: int) -> Optional[BusHandler]:
        """The installed handler covering ``addr`` (None when uncovered)."""
        handler = self._handler_memo.get(addr)
        if handler is not None:
            return handler
        last = self._last_hit
        if last is not None and last[0].base <= addr < last[0].end:
            return last[1]
        i = bisect.bisect_right(self._bases, addr) - 1
        if i < 0:
            return None
        region, handler = hit = self._handlers[i]
        if addr >= region.end:
            return None
        if region.memo:
            self._handler_memo[addr] = handler
        self._last_hit = hit
        return handler

    # -- snooper interface -----------------------------------------------------

    def snoop(self, txn: BusTransaction) -> SnoopResult:
        """Observe one aP bus operation, dispatching to the handler table.

        The aBIU never reacts to operations it mastered itself (the FPGA
        gates its own grants out of the snoop path).
        """
        if txn.master == self._master:
            return SNOOP_OK
        # handler_for's memo, read inline: every aP bus operation asks
        handler = self._handler_memo.get(txn.addr)
        if handler is None:
            handler = self.handler_for(txn.addr)
            if handler is None:
                return SNOOP_OK
        self.observed += 1
        verdict = handler.decide(txn)
        if verdict is SNOOP_CLAIM:
            self._claimed[txn.txn_id] = handler
        return verdict

    def serve(self, txn: BusTransaction
              ) -> Generator["Event", None, Optional[bytes]]:
        """Route a claimed data tenure to the claiming handler.

        A plain function returning the handler's own generator: the bus
        runs the handler's data tenure with no aBIU frame in between.
        """
        handler = self._claimed.pop(txn.txn_id, None)
        if handler is None:
            raise SimulationError(f"{self.name}: serve without claim for {txn!r}")
        return handler.serve(txn)

    # -- bus mastering ------------------------------------------------------------

    def issue(self, txn: BusTransaction
              ) -> Generator["Event", None, BusTransaction]:
        """Run a CTRL/firmware-originated transaction on the aP bus."""
        txn.master = self._master
        return (yield from self.bus.transact(txn))
