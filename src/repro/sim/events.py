"""Events: the unit of synchronization in the simulation kernel.

A process (see :mod:`repro.sim.process`) waits by yielding
:class:`Event` objects.  The engine resumes the process when the event
*triggers*, sending the event's value into the generator (or throwing the
event's exception, if it failed).  A process that only needs to let time
pass yields the float delay instead — no Event at all.

This is a deliberately small SimPy-like core: ``Event``, ``Timeout``,
``AllOf``/``AnyOf`` combinators.  Everything else (resources, stores,
buses...) is built on these.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from repro.common.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

#: Sentinel distinguishing "no value yet" from a triggered ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*; exactly once it either :meth:`succeed`\\ s
    with a value or :meth:`fail`\\ s with an exception.  Callbacks attached
    before triggering run (via the engine, at the trigger time) in
    attachment order; callbacks attached after triggering run immediately.
    """

    __slots__ = ("engine", "_value", "_exc", "_callbacks", "name")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._callbacks: Optional[List[Callable[["Event"], None]]] = []
        self.name = name

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful if triggered)."""
        return self.triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The success value; raises if the event is pending or failed."""
        if not self.triggered:
            raise SimulationError(f"event {self!r} has not triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None."""
        return self._exc

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self.triggered:
            raise SimulationError(f"event {self!r} triggered twice")
        self._value = value
        self._schedule_callbacks()
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; waiters see ``exc`` raised."""
        if self.triggered:
            raise SimulationError(f"event {self!r} triggered twice")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        self._exc = exc
        self._schedule_callbacks()
        return self

    def _schedule_callbacks(self) -> None:
        # Inlined KIND_CALLBACKS push: this runs once per triggered
        # event, hot enough that a method call and a closure both showed
        # up in profiles.  Callbacks run as a unit at the current time,
        # after already-queued same-time entries.
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            engine = self.engine
            engine._seq = seq = engine._seq + 1
            heappush(engine._heap, (engine._now, seq, 2, callbacks, self))

    # -- waiting -------------------------------------------------------

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event triggers (immediately if it has)."""
        if self._callbacks is None:
            fn(self)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self.triggered:
            state = "ok" if self.ok else f"failed({self._exc!r})"
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay.

    Only for a delay whose Event identity matters: a timer raced in an
    :class:`AnyOf`, or one handed to other code.  A process that just
    sleeps yields the float delay, which schedules the same items
    without an Event (lint rule PERF002).
    """

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        super().__init__(engine, "timeout")
        self.delay = delay
        engine._seq = seq = engine._seq + 1
        heappush(engine._heap, (engine._now + delay, seq, 1, self, value))


class AllOf(Event):
    """Succeeds when every child event has succeeded.

    The value is a list of child values in the order given.  If any child
    fails, this fails with that child's exception (first failure wins).
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine, name="all_of")
        self._children: List[Event] = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(Event):
    """Succeeds when the first child succeeds; value is ``(index, value)``.

    Fails if a child fails before any succeeds.
    """

    __slots__ = ("_children",)

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine, name="any_of")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf needs at least one event")
        for i, ev in enumerate(self._children):
            ev.add_callback(lambda e, i=i: self._on_child(i, e))

    def _on_child(self, index: int, ev: Event) -> None:
        if self.triggered:
            return
        if ev.ok:
            self.succeed((index, ev._value))
        else:
            self.fail(ev.exception)  # type: ignore[arg-type]
