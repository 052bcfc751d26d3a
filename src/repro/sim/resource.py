"""Shared resources with FIFO or priority arbitration.

Buses, SRAM ports, the IBus, link transmitters — anything only one user
may hold at a time — are modeled as a :class:`Resource`.  Requests queue;
grants are events.  Hot paths take a free unit with :meth:`Resource.try_acquire`
first and fall back to yielding :meth:`Resource.request` only when they
must wait::

    if not res.try_acquire():
        yield res.request()

An immediate grant schedules nothing either way (the granted event has no
waiters yet when it succeeds), so the two forms run the same heap items;
``try_acquire`` just skips the event and the resume of the caller's whole
generator chain.  ``PriorityResource`` orders waiters by a priority key
(lower wins), with FIFO order among equals, which is exactly the shape of
CTRL's transmit-queue arbitration and the Arctic two-priority links.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Generator, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Resource:
    """A counted resource with FIFO grant order (capacity defaults to 1)."""

    __slots__ = (
        "engine",
        "capacity",
        "name",
        "_in_use",
        "_waiters",
        "_busy_since",
        "_busy_time",
        "_req_name",
    )

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        # a FIFO of rarely more than a few waiters: a plain list (an
        # empty deque costs about ten times an empty list)
        self._waiters: List[Event] = []
        # utilization accounting
        self._busy_since: Optional[float] = None
        self._busy_time = 0.0
        # precomputed: request() is on every bus/SRAM/link fast path.
        self._req_name = "req:" + name

    # -- acquisition -----------------------------------------------------

    def request(self) -> Event:
        """An event that succeeds when one unit is granted to the caller."""
        ev = Event(self.engine, self._req_name)
        if self.try_acquire():
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take a free unit without an event; False (and no change) if none.

        Every grant, immediate or queued, books its unit here.  A unit is
        free only when nobody waits (a release hands the unit straight to
        the next waiter), so this never jumps the queue.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            if self._busy_since is None:
                self._busy_since = self.engine._now
            return True
        return False

    def release(self) -> None:
        """Return one unit; the longest-waiting request (if any) is granted."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self._busy_time += self.engine._now - self._busy_since
            self._busy_since = None
        while self._waiters:
            ev = self._waiters.pop(0)
            if ev.triggered:  # cancelled/failed externally
                continue
            self._grant(ev)
            break

    def _grant(self, ev: Event) -> None:
        self.try_acquire()  # always True: release() just freed a unit
        ev.succeed(self)

    # -- convenience -----------------------------------------------------

    def using(self, hold_ns: float) -> Generator[Event, None, None]:
        """Process fragment: acquire, hold for ``hold_ns``, release.

        Usage inside a process body::

            yield from resource.using(25.0)
        """
        if not self.try_acquire():
            yield self.request()
        try:
            yield float(hold_ns)
        finally:
            self.release()

    # -- introspection -----------------------------------------------------

    @property
    def in_use(self) -> int:
        """Units currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting for a grant."""
        return len(self._waiters)

    def busy_time(self) -> float:
        """Total ns during which at least one unit was held."""
        extra = (self.engine.now - self._busy_since) if self._busy_since is not None else 0.0
        return self._busy_time + extra

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the resource was busy."""
        return self.busy_time() / self.engine.now if self.engine.now > 0 else 0.0


class PriorityResource(Resource):
    """A resource whose waiters are granted lowest-priority-value first.

    Ties break FIFO via a sequence counter, preserving determinism.
    """

    __slots__ = ("_pwaiters", "_seq")

    def __init__(self, engine: "Engine", capacity: int = 1, name: str = "") -> None:
        super().__init__(engine, capacity, name)
        self._pwaiters: List[Tuple[int, int, Event]] = []
        self._seq = 0

    def request(self, priority: int = 0) -> Event:  # type: ignore[override]
        ev = Event(self.engine, self._req_name)
        if self.try_acquire():
            ev.succeed(self)
        else:
            self._seq += 1
            heapq.heappush(self._pwaiters, (priority, self._seq, ev))
        return ev

    def release(self) -> None:  # type: ignore[override]
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self._busy_time += self.engine._now - self._busy_since
            self._busy_since = None
        while self._pwaiters:
            _prio, _seq, ev = heapq.heappop(self._pwaiters)
            if ev.triggered:
                continue
            self._grant(ev)
            break

    @property
    def queue_length(self) -> int:  # type: ignore[override]
        return len(self._pwaiters)

    def using(self, hold_ns: float, priority: int = 0):  # type: ignore[override]
        """Acquire at ``priority``, hold, release (see :meth:`Resource.using`)."""
        if not self.try_acquire():
            yield self.request(priority)
        try:
            yield float(hold_ns)
        finally:
            self.release()
