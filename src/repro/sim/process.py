"""Processes: generator-driven concurrent activities.

A process wraps a Python generator.  The generator models one hardware
unit's control flow (a bus master's transaction sequence, a firmware
handler, a switch's forwarding loop...).  It advances by ``yield``-ing
either an :class:`~repro.sim.events.Event` — the engine resumes it with
the event's value when the event triggers, or throws the event's
exception into it — or a ``float``: a sleep of that many ns, resumed
with ``None``.  A sleep is the cheap form of yielding ``Timeout(engine, d)``:
the same scheduled items, sequence numbers and executed count, but no
Event, callback list or bound-method wake-up behind it (DESIGN.md §8.1).

A ``Process`` is itself an event: it triggers with the generator's return
value when the generator finishes, so processes can wait on each other
(fork/join) simply by yielding the child process.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional, Union

from repro.common.errors import SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from array import array

    from repro.sim.engine import Engine

ProcGen = Generator[Any, Any, Any]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Spin:
    """A polling loop's offer to go dormant (DESIGN.md §8.1, "Dormant
    spins").

    A process spinning on a location yields its Spin once per empty
    iteration, just before that iteration's last sleep.  The yield costs
    no simulated time and no scheduled item: the process resumes at
    once.  A replayed iteration, run while the spin is :attr:`dormant`,
    must not yield its mark: the replay takes only sleeps.  Once one
    full empty iteration has run through the engine since the spin began
    (or last woke), the sleep that follows the mark goes *dormant*
    instead of being pushed, provided the spin is :meth:`ready` to guard
    everything an empty iteration touches.  The first guard to fire
    calls :meth:`wake`, and the engine replays the missed iterations
    (see :meth:`repro.sim.engine.Engine._wake`): whole ones through
    :meth:`skip` where it can, the rest through the process's own
    generator.

    Subclasses name what an empty iteration touches: :meth:`ready` says
    whether all of it is idle, and :meth:`guard` points a guard on each
    part at a waker (``None`` removes them).  A guard calls its waker's
    :meth:`wake` before it lets anything else touch that part.
    """

    __slots__ = ("engine", "proc", "loop", "marks", "dormant", "due",
                 "token", "delay", "phase")

    #: sleeps per empty iteration, the last being the one a spin dozes on
    sleeps = 1

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        #: the spinning process, once its first mark has been seen, and
        #: the generator of its polling loop, the one that yields the
        #: mark: a replay resumes that one, past the frames delegating to it.
        self.proc: Optional["Process"] = None
        self.loop: Optional[ProcGen] = None
        #: marks seen through the engine since the spin began or woke.
        self.marks = 0
        #: True from going dormant to waking: a replayed iteration must
        #: not yield its mark (the replay takes only floats).
        self.dormant = False
        #: while dormant: when the pending sleep ends, and its wait token,
        #: the seq its KIND_SLEEP item would carry (an int, or a float a
        #: replay placed between two ints).
        self.due = 0.0
        self.token: Any = 0
        #: the delay of the sleep the spin dozed on, and the index (mod
        #: :attr:`sleeps`) of the pending sleep in its iteration: 0 while
        #: it is that one.
        self.delay = 0.0
        self.phase = 0

    def ready(self) -> bool:
        """True when every part an empty iteration touches is idle."""
        return False

    def guard(self, waker: Optional["Spin"]) -> None:
        """Point the guard on every part an empty iteration touches at
        ``waker`` (None removes them)."""

    def skip(self, due: float, t: float, inclusive: bool,
             ends: "array[float]") -> float:
        """Replay whole empty iterations without resuming the generator,
        while its pending sleep, the one it dozed on, ends at ``due``.
        Each iteration must end before ``t`` (at or before it when
        ``inclusive``) and appends its sleeps' ends to ``ends``; returns
        where the pending sleep then ends.  This one skips nothing."""
        return due

    def wake(self) -> None:
        """A guard fired: replay the missed iterations up to now."""
        self.engine._wake(self, self.engine._now, False)


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
        #: the Event this process is parked on, or the int token (the
        #: KIND_SLEEP item's seq) of the sleep it is in; None otherwise.
        self._waiting_on: Union[Event, int, None] = None
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
        blocked on an event or a sleep detaches it from that wait (the
        event may still trigger, the sleep's items still run and count;
        the process simply no longer waits on them).  A dormant spinner
        first replays its missed iterations, so it is interrupted exactly
        where it would have been.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        spin = self.engine._dormant.get(self)
        if spin is not None:
            spin.wake()
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
        resumed through a callback run in place.  A yielded :class:`Spin`
        is passed the same way, after counting it; the sleep right after
        it may go dormant (:meth:`Engine._doze`) instead of being pushed.

        A float ``target`` sleeps: one KIND_SLEEP item whose sequence
        number doubles as the wait token, pushed here — at the yield,
        where ``Timeout.__init__`` pushed its KIND_SUCCEED item.  A
        negative one throws ``Timeout``'s error into the generator at
        the yield.  (:meth:`Engine._dispatch` inlines the float case for
        a process it has just woken from a sleep.)
        """
        gen = self._gen
        spin: Optional[Spin] = None
        while True:
            if isinstance(target, float):
                if target < 0:
                    exc: BaseException = SimulationError(
                        f"negative timeout {target}")
                else:
                    engine = self.engine
                    engine._seq = seq = engine._seq + 1
                    self._waiting_on = seq
                    if spin is None or not engine._doze(spin, self, target, seq):
                        heappush(engine._heap,
                                 (engine._now + target, seq, 3, self, seq))
                    return
            elif isinstance(target, Spin):
                spin = target
                if spin.loop is None:
                    spin.proc = self
                    loop = gen
                    while loop.gi_yieldfrom is not None:
                        loop = loop.gi_yieldfrom
                    spin.loop = loop
                spin.marks += 1
                try:
                    target = gen.send(None)
                except BaseException as err:
                    self._finish(err)
                    return
                continue
            elif not isinstance(target, Event):
                err = SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must "
                    "yield an Event or a float delay in ns"
                )
                if not self._callbacks:
                    self.engine._note_process_crash(self, err)
                self.fail(err)
                gen.close()
                return
            else:
                # inlined Event.add_callback
                callbacks = target._callbacks
                if callbacks is not None:
                    self._waiting_on = target
                    callbacks.append(self._on_event)
                    return
                exc = target._exc
            spin = None
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
