"""Processes: generator-driven concurrent activities.

A process wraps a Python generator.  The generator models one hardware
unit's control flow (a bus master's transaction sequence, a firmware
handler, a switch's forwarding loop...).  It advances by ``yield``-ing
:class:`~repro.sim.events.Event` objects; the engine resumes it with the
event's value when the event triggers, or throws the event's exception
into it.

A ``Process`` is itself an event: it triggers with the generator's return
value when the generator finishes, so processes can wait on each other
(fork/join) simply by yielding the child process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.common.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Engine

ProcGen = Generator[Event, Any, Any]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """A running generator, schedulable and joinable.

    Created through :meth:`repro.sim.engine.Engine.process`.  The first
    step runs at the current simulation time (scheduled, not inline, so
    creation order does not leak into event order subtleties).
    """

    __slots__ = ("_gen", "_waiting_on", "_started", "daemon")

    def __init__(
        self, engine: "Engine", gen: ProcGen, name: str = "", daemon: bool = False
    ) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(gen).__name__}; "
                "did you forget a yield?"
            )
        super().__init__(engine, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self._started = False
        #: infrastructure service loop — expected to idle-block forever,
        #: invisible to the deadlock watchdog.
        self.daemon = daemon
        engine._schedule_call(self._first_step)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        blocked on an event detaches it from that event (the event may
        still trigger later; the process simply no longer waits on it).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        self._waiting_on = None
        self.engine._schedule_call(lambda: self._resume(throw=Interrupt(cause)))

    # -- engine plumbing -------------------------------------------------

    def _first_step(self) -> None:
        if self._started:  # pragma: no cover - defensive
            return
        self._started = True
        self._resume(send=None)

    def _on_event(self, ev: Event) -> None:
        if self._waiting_on is not ev:
            return  # stale wakeup: the process was interrupted meanwhile
        self._waiting_on = None
        # callbacks only run on triggered events: ``_exc`` alone says
        # which way (the ``ok``/``triggered`` properties cost two calls)
        exc = ev._exc
        try:
            if exc is None:
                target = self._gen.send(ev._value)
            else:
                target = self._gen.throw(exc)
        except BaseException as err:
            self._finish(err)
            return
        # the common case inline: park on a pending event
        if isinstance(target, Event):
            callbacks = target._callbacks
            if callbacks is not None:
                self._waiting_on = target
                callbacks.append(self._on_event)
                return
        self._wait(target)

    def _resume(self, send: Any = None, throw: Optional[BaseException] = None) -> None:
        try:
            if throw is not None:
                target = self._gen.throw(throw)
            else:
                target = self._gen.send(send)
        except BaseException as err:
            self._finish(err)
            return
        self._wait(target)

    def _wait(self, target: Any) -> None:
        """Park on ``target``, first running past every already-triggered
        target in a loop: one stack frame however many yields in a row
        need no waiting (draining a pre-filled store, uncontended
        requests).  Nothing is scheduled for those, exactly as when each
        resumed through a callback run in place."""
        gen = self._gen
        while True:
            if not isinstance(target, Event):
                err = SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must "
                    "yield Event instances"
                )
                if not self._callbacks:
                    self.engine._note_process_crash(self, err)
                self.fail(err)
                gen.close()
                return
            # inlined Event.add_callback
            callbacks = target._callbacks
            if callbacks is not None:
                self._waiting_on = target
                callbacks.append(self._on_event)
                return
            exc = target._exc
            try:
                if exc is None:
                    target = gen.send(target._value)
                else:
                    target = gen.throw(exc)
            except BaseException as err:
                self._finish(err)
                return

    def _finish(self, err: BaseException) -> None:
        """The generator ended: ``err`` is its StopIteration or crash."""
        if isinstance(err, StopIteration):
            self.succeed(err.value)
            return
        # A crashed process fails its join-event so parents see the
        # error.  Only *unjoined* crashes surface through the engine —
        # a parent that already yielded on this process receives the
        # exception itself and decides what to do with it.
        if not self._callbacks:
            self.engine._note_process_crash(self, err)
        self.fail(err)
