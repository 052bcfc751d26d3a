"""The coherent memory bus (60X-style).

One bus per node, shared by the aP (through its L2), the memory
controller, and the NIU's aBIU.  The model serializes each transaction —
arbitration, address tenure, snoop window, data tenure — while the bus is
held.  The real 60X pipelines address and data tenures; collapsing them
costs some absolute accuracy but preserves what the paper's experiments
measure: *how many times data crosses the bus* and *who is occupied while
it does*.

Retry semantics follow the hardware: a snooper answering RETRY aborts the
tenure after the snoop window; the master backs off
``retry_backoff_cycles`` and re-arbitrates.  An S-COMA stalled read is
therefore a live sequence of short aborted tenures, consuming bus
bandwidth and keeping the aP pinned — the exact pathology §6 of the paper
warns about for approaches 4/5.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

from repro.bus.ops import BusTransaction
from repro.bus.snoop import SNOOP_CLAIM, SNOOP_RETRY, BusSlave, Snooper
from repro.common.config import BusConfig
from repro.common.errors import AddressError, SimulationError
from repro.mem.address import AddressMap
from repro.sim.resource import PriorityResource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.events import Event
    from repro.sim.stats import Counter, StatsRegistry
    from repro.sim.trace import Tracer


class MemoryBus:
    """Arbitrated, snooped, address-mapped transaction transport."""

    def __init__(
        self,
        engine: "Engine",
        config: BusConfig,
        address_map: AddressMap,
        stats: Optional["StatsRegistry"] = None,
        tracer: Optional["Tracer"] = None,
        name: str = "bus",
    ) -> None:
        self.engine = engine
        self.config = config
        self.address_map = address_map
        self.name = name
        self.stats = stats
        self.tracer = tracer
        self._arbiter = PriorityResource(engine, capacity=1, name=f"{name}.arb")
        self._snoopers: List[Snooper] = []
        # per-transaction constants, computed once (same float expressions
        # as :meth:`cycles`, so every tenure lands on the same ns)
        self._address_ns = self.cycles(config.arbitration_cycles
                                       + config.address_cycles)
        self._snoop_ns = self.cycles(config.snoop_cycles)
        self._backoff_ns = self.cycles(config.retry_backoff_cycles)
        # counters, fetched on first use so a bus that never completes
        # (or retries) a transaction registers none — snapshot keys and
        # their order stay those of a per-call lookup
        self._txns: Optional[Counter] = None
        self._bytes: Optional[Counter] = None
        self._retries: Optional[Counter] = None
        #: a dormant spin polling over this bus (:class:`repro.sim.process.Spin`):
        #: any other transaction wakes it before arbitrating.
        self.waker = None

    # -- construction ------------------------------------------------------

    def attach_snooper(self, snooper: Snooper) -> None:
        """Add a snooping agent; order of attachment is snoop order."""
        self._snoopers.append(snooper)

    # -- timing helpers ------------------------------------------------------

    def cycles(self, n: float) -> float:
        """Convert bus cycles to nanoseconds."""
        return n * self.config.cycle_ns

    # -- the transaction protocol ---------------------------------------------

    def transact(
        self, txn: BusTransaction, priority: int = 0
    ) -> Generator["Event", None, BusTransaction]:
        """Run one transaction to completion (process fragment).

        Returns the same transaction, with ``data`` filled in for reads.
        Raises :class:`AddressError` if nothing claims or maps the address,
        and :class:`SimulationError` when the configured retry cap trips
        (live-lock guard).
        """
        cfg = self.config
        op = txn.op
        if op.is_burst:
            if txn.size != cfg.line_bytes:
                raise SimulationError(
                    f"burst {op.value} must be {cfg.line_bytes} bytes, "
                    f"got {txn.size}"
                )
            if txn.addr % cfg.line_bytes:
                raise SimulationError(
                    f"burst {op.value} misaligned at {txn.addr:#x}"
                )
        arbiter = self._arbiter
        stats = self.stats

        while True:
            if self.waker is not None:
                self.waker.wake()
            # arbitration + address tenure + snoop window, bus held; a
            # free bus is taken without yielding (see Resource.try_acquire)
            if not arbiter.try_acquire():
                yield arbiter.request(priority)
            try:
                yield self._address_ns
                # the snoop window: every snooper votes (any RETRY aborts
                # the tenure; at most one may CLAIM the data tenure)
                claimant: Optional[Snooper] = None
                retried = False
                for snooper in self._snoopers:
                    res = snooper.snoop(txn)
                    if res is SNOOP_RETRY:
                        retried = True
                    elif res is SNOOP_CLAIM:
                        if claimant is not None:
                            raise SimulationError(
                                f"{txn!r} claimed by both "
                                f"{claimant.snooper_name!r} and "
                                f"{snooper.snooper_name!r}"
                            )
                        claimant = snooper
                yield self._snoop_ns

                if retried:
                    txn.retries += 1
                    if stats is not None:
                        if self._retries is None:
                            self._retries = stats.counter(f"{self.name}.retries")
                        self._retries.incr()
                    if cfg.max_retries and txn.retries > cfg.max_retries:
                        raise SimulationError(
                            f"{txn!r} exceeded retry cap {cfg.max_retries}"
                        )
                else:
                    # data tenure while the bus is held: the claiming
                    # snooper serves it, else the region's bus slave
                    if claimant is not None:
                        txn.intervened = True
                        result = yield from claimant.serve(txn)
                    else:
                        result = yield from self._data_tenure(txn)
                    if op.is_read:
                        if result is None or len(result) != txn.size:
                            raise SimulationError(
                                f"{txn!r}: handler returned "
                                f"{len(result) if result is not None else None} "
                                f"bytes, expected {txn.size}"
                            )
                        txn.data = result
                    if stats is not None:
                        if self._txns is None:
                            self._txns = stats.counter(f"{self.name}.txns")
                        # Counter.incr without its sign check: both
                        # steps are positive (a size is checked > 0)
                        self._txns.value += 1
                        if op.has_data:
                            if self._bytes is None:
                                self._bytes = stats.counter(f"{self.name}.bytes")
                            self._bytes.value += txn.size
                    tr = self.tracer
                    if tr is not None and tr.active:
                        tr.instant(f"bus.{op.value}", source=self.name,
                                   track="bus", addr=txn.addr,
                                   size=txn.size, master=txn.master)
                    return txn
            finally:
                arbiter.release()
            # back off without holding the bus, then re-arbitrate
            yield self._backoff_ns

    def _data_tenure(
        self, txn: BusTransaction
    ) -> Generator["Event", None, Optional[bytes]]:
        """Unclaimed data tenure: the address map's bus slave serves it."""
        if not txn.op.has_data:
            # address-only operation (KILL/FLUSH): snoopers already acted.
            return None
        region = self.address_map.lookup(txn.addr, txn.size)
        owner = region.owner
        if owner is None:
            raise AddressError(
                f"{txn!r}: region {region.name!r} has no bus slave and no "
                "snooper claimed the transaction"
            )
        if not isinstance(owner, BusSlave):
            raise SimulationError(
                f"region {region.name!r} owner is not a BusSlave: {owner!r}"
            )
        return (yield from owner.access(txn))

    def idle(self) -> bool:
        """True when no master holds or waits for the bus."""
        arbiter = self._arbiter
        return not arbiter.in_use and not arbiter.queue_length

    # -- diagnostics -----------------------------------------------------------

    def utilization(self) -> float:
        """Fraction of simulated time the bus was held."""
        return self._arbiter.utilization()

    def busy_ns(self) -> float:
        """Total ns the bus was held."""
        return self._arbiter.busy_time()
