"""The discrete-event engine.

A binary-heap scheduler over *scheduled items*: 5-tuples of
``(time, seq, kind, target, arg)``.  The sequence number makes
scheduling deterministic — two items scheduled for the same instant run
in the order they were scheduled, on every run, on every platform — and,
because it is unique, tuple comparison terminates at ``seq`` and never
inspects ``kind``/``target``/``arg``.  Determinism is a hard requirement
here: the whole point of the platform is comparing mechanisms, and noise
from dict/heap tie-breaking would poison those comparisons.

The ``kind`` field selects one of five inlined dispatch paths in the
one dispatch core, :meth:`Engine._dispatch`, which every run loop
wraps (see DESIGN.md §8.1, the simulation kernel fast paths):

====  ==============  =====================================================
kind  name            meaning
====  ==============  =====================================================
0     CALL            ``target`` is a no-arg callable; ``arg`` unused
1     SUCCEED         ``target`` is an :class:`Event`; succeed with ``arg``
2     CALLBACKS       ``target`` is a callback list; ``arg`` the event
3     SLEEP           ``target`` is a :class:`Process` that yielded a
                      float; ``arg`` its wait token
4     WAKE            ``target`` is that process, owed a same-instant
                      wake-up; ``arg`` its wait token
====  ==============  =====================================================

A SLEEP/WAKE pair is a yielded ``Timeout(engine, d)`` without the Event:
SLEEP stands where the Timeout's SUCCEED item stood and WAKE where its
CALLBACKS item stood, with the same sequence numbers and the same two
executed items per sleep, tied or not.  The one exception is the key of
a spinning process's sleep, *banded* (:class:`~repro.sim.process.Spin`):
``BAND`` plus its spin's index instead of its seq, so that it sorts
after every ordinary item due at the same instant.

Earlier revisions stored a closure per entry (``lambda: ev.succeed(v)``)
— one allocation per scheduled event plus an indirect call at dispatch.
The tagged-tuple layout removes both, which matters: the kernel executes
hundreds of thousands of items per wall second.

Time is a float in nanoseconds (see :mod:`repro.common.units`).
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import DeadlockError, SimulationError
from repro.sim.events import _PENDING, AllOf, Event, Timeout
from repro.sim.process import BAND, ProcGen, Process, Spin

#: scheduled-item kinds — element 2 of a heap entry.
KIND_CALL = 0
KIND_SUCCEED = 1
KIND_CALLBACKS = 2
KIND_SLEEP = 3
KIND_WAKE = 4

#: an unbounded run horizon.
INFINITY = float("inf")

#: one heap entry: (time, key, kind, target, arg); the key is the item's
#: seq, or a banded sleep's ``BAND`` plus its spin's index.
ScheduledItem = Tuple[float, int, int, Any, Any]


class SchedulePolicy:
    """Chooses which of several same-timestamp items runs next.

    With a policy installed on :attr:`Engine.schedule_policy`, every run
    loop turns a group of heap entries tied at the minimal timestamp
    into an explicit *decision point*: the whole tie group is popped (in
    key order, so ``ready[0]`` is what the default scheduler would run),
    :meth:`choose` picks one, and the rest re-enter the heap with their
    original keys — their relative order, and their order
    against items scheduled later, is unchanged.  Items the chosen
    item's execution schedules at the same instant join the *next*
    decision point, so a policy sees every racy ordering the seq
    tie-break normally hides.

    The default policy — always index 0 — replays the engine's native
    seq order exactly; :mod:`repro.explore` builds DFS exploration and
    trace replay on top of this hook.
    """

    __slots__ = ()

    def choose(self, time: float, ready: List[ScheduledItem]) -> int:
        """Index into ``ready`` (len >= 2) of the item to execute now."""
        return 0


class Engine:
    """Event loop, clock, and factory for events and processes.

    A spinning process's sleeps are banded (:class:`Spin`): they sort
    after every ordinary item due at their instant, so a dormant spin
    (:meth:`_doze`) knows its pending sleep's key alone, and a wake
    (:meth:`_wake`) replays that one spin.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_seq",
        "_crashes",
        "strict",
        "events_executed",
        "wall_seconds",
        "drain_hooks",
        "deadlock_dump",
        "process_registry",
        "schedule_policy",
        "_dormant",
        "_spin_off",
        "_spins",
        "_banded",
    )

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[ScheduledItem] = []
        self._seq = 0
        self._crashes: List[Tuple[Process, BaseException]] = []
        #: processes whose failure should abort run() even if unjoined.
        self.strict = True
        #: total scheduled items executed — the observability layer's
        #: measure of how much simulation work a run cost.
        self.events_executed = 0
        #: wall-clock seconds spent inside run()/run_until_triggered();
        #: with :attr:`events_executed` this yields the
        #: :attr:`events_per_second` throughput gauge.
        self.wall_seconds = 0.0
        #: callables invoked whenever run() fully drains the heap — the
        #: sanitizer layer's hook for end-of-run invariants (credit
        #: conservation, deadlock detection).  Empty unless sanitizers
        #: are installed, so the off path costs one empty-list iteration
        #: per run() call.
        self.drain_hooks: List[Callable[[], None]] = []
        #: optional () -> str producing a wait-for-graph dump, appended
        #: to the drained-queue error in run_until_triggered().
        self.deadlock_dump: Optional[Callable[[], str]] = None
        #: when not None, every process created via :meth:`process` is
        #: appended here (the deadlock watchdog's roster).
        self.process_registry: Optional[List[Process]] = None
        #: optional :class:`SchedulePolicy`: when installed, groups of
        #: scheduled items tied at one timestamp become explicit decision
        #: points (see :meth:`_pop_decision`).  ``None`` (the default)
        #: keeps the plain seq-ordered pop — the byte-identical fast
        #: path.  Install before calling a run loop: the loops hoist the
        #: attribute into a local once per call.
        self.schedule_policy: Optional["SchedulePolicy"] = None
        #: dormant spinners, process -> its :class:`Spin`, in the order
        #: they went dormant (see :meth:`_doze`).
        self._dormant: Dict[Process, Spin] = {}
        #: True keeps every spin awake: the slow path, for comparisons.
        self._spin_off = False
        #: spins made so far: the next one's index (:attr:`Spin.key`).
        self._spins = 0
        #: ``(time, key)`` of the last banded sleep dispatched: banded
        #: items due at one instant run in key order, so at that instant
        #: every banded sleep with a smaller key has run (see :meth:`_wake`).
        self._banded: Tuple[float, int] = (-1.0, 0)

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    # -- factories -------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """A fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds ``delay`` ns from now (a process that
        just sleeps yields the float ``delay`` instead)."""
        return Timeout(self, delay, value)

    def process(self, gen: ProcGen, name: str = "", daemon: bool = False) -> Process:
        """Start a generator as a process at the current time.

        ``daemon`` marks infrastructure service loops (queue pumps,
        dispatch kernels) that legitimately idle-block forever; the
        deadlock watchdog ignores them when deciding whether a drained
        event queue left real work stuck.
        """
        proc = Process(self, gen, name, daemon=daemon)
        registry = self.process_registry
        if registry is not None:
            registry.append(proc)
        return proc

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Join helper: triggers when every event has succeeded."""
        return AllOf(self, events)

    # -- scheduling (internal API used by events/processes) ---------------

    def _schedule_call(self, fn: Callable[[], None], delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now + delay, seq, KIND_CALL, fn, None))

    def _pop_decision(self, policy: SchedulePolicy) -> ScheduledItem:
        """Pop the next item through a schedule policy.

        Gathers the whole group tied at the minimal timestamp (popped in
        seq order), lets ``policy`` choose one, and pushes the rest back
        unchanged.  A single-item group is not a decision point — the
        policy never sees it.
        """
        heap = self._heap
        first = heappop(heap)
        if not heap or heap[0][0] != first[0]:
            return first
        ready = [first]
        while heap and heap[0][0] == first[0]:
            ready.append(heappop(heap))
        index = policy.choose(first[0], ready)
        if not 0 <= index < len(ready):
            raise SimulationError(
                f"schedule policy chose index {index} out of "
                f"{len(ready)} ready items at t={first[0]:.1f}ns"
            )
        chosen = ready.pop(index)
        for item in ready:
            heappush(heap, item)
        return chosen

    def _note_process_crash(self, proc: Process, exc: BaseException) -> None:
        self._crashes.append((proc, exc))

    def _crash_error(self) -> SimulationError:
        proc, exc = self._crashes[0]
        err = SimulationError(
            f"process {proc.name!r} crashed at t={self._now:.1f}ns"
        )
        err.__cause__ = exc
        return err

    # -- running -----------------------------------------------------------

    def _dispatch(self, last: float, stop: Optional[Event] = None) -> None:
        """The one dispatch core behind :meth:`run` and
        :meth:`run_until_triggered`.

        Executes items in heap order while the earliest is due at or
        before ``last`` (inclusive) and, when ``stop`` is given, until
        ``stop`` has triggered.  A crashed process aborts the loop (when
        ``strict``); everything else — clock forcing, drain hooks, the
        deadlock and limit errors — is the wrappers' business.

        Same-instant callback inlining: a KIND_SUCCEED item whose event
        has waiters owes a KIND_CALLBACKS item at its own timestamp.
        When nothing else is queued at that instant, that item would be
        popped next, alone in its tie group (so a schedule policy never
        sees it), and the core runs the callbacks at once instead.  It
        still takes the item's sequence number and counts it in
        :attr:`events_executed`, so seq order, decision points and the
        executed count match the pushed form exactly.  ``stop``'s own
        callbacks are always pushed: the loop returns as soon as
        ``stop`` triggers, leaving them queued.

        A KIND_SLEEP item gets the same treatment: it owes a KIND_WAKE
        item at its own timestamp, and when nothing else is queued there
        the core resumes the process at once, as a KIND_WAKE item does.
        The core is the only place a sleeper is woken: it sends ``None``
        into the generator and, when the process sleeps again, parks
        that sleep itself, so a process that only sleeps never leaves
        the loop.  A process interrupted mid-sleep no longer holds the
        item's token: its items still take their sequence number and
        count, and resume nothing — exactly a stale Timeout callback.

        Peek, then replace: without a policy the core reads the heap top
        and leaves a KIND_SLEEP or KIND_WAKE item queued while it runs.
        It is the minimum, and everything pushed meanwhile is due no
        earlier and has a larger key, so it stays at ``heap[0]``.
        The item that follows it (the KIND_WAKE, or the resumed
        process's next sleep) takes its place with one ``heapreplace``
        instead of a pop and a push.  The tie test looks past it, at
        ``heap[1]`` and ``heap[2]``, the only places the next-earliest
        item can sit.  Every other exit pops it before calling anything
        that could raise or schedule, so it never outlives its own
        dispatch.  Pop order depends only on the set of queued
        ``(time, key)`` pairs, never on the heap's layout, so nothing
        observable moves.  A banded SLEEP is popped at once instead: the
        poll it resumes may push an ordinary item due at its own instant
        (a bus release), which sorts ahead of it.  Under a schedule
        policy a lone item takes the same path; a tie group goes to
        :meth:`_pop_decision`, which pops the chosen item itself
        (``queued`` is then False).
        """
        heap = self._heap
        crashes = self._crashes
        policy = self.schedule_policy
        pop, push, replace = heappop, heappush, heapreplace
        executed = 0
        t0 = perf_counter()
        try:
            while heap:
                time, _seq, kind, target, arg = heap[0]
                if time > last:
                    break
                if policy is not None and (
                        (len(heap) > 1 and heap[1][0] == time)
                        or (len(heap) > 2 and heap[2][0] == time)):
                    # a tie group: a decision point.  Every popped tie
                    # shares the first item's timestamp, so the whole
                    # group satisfies the `<= last` guard
                    time, _seq, kind, target, arg = self._pop_decision(policy)
                    queued = False
                elif kind >= 3:
                    queued = _seq < BAND  # if so, replaced or popped below
                    if not queued:
                        pop(heap)
                        self._banded = time, _seq
                else:
                    pop(heap)
                self._now = time
                executed += 1
                # Inline dispatch, most frequent kinds first.
                if kind >= 3:  # SLEEP / WAKE: arg is the process's wait token
                    if kind == 3:
                        self._seq = seq = self._seq + 1
                        if queued:
                            n = len(heap)
                            tied = ((n > 1 and heap[1][0] == time)
                                    or (n > 2 and heap[2][0] == time))
                        else:
                            tied = bool(heap) and heap[0][0] == time
                        if tied:
                            # the WAKE item waits its turn.  Nothing ran,
                            # so there is no crash or stop to check
                            if queued:
                                replace(heap, (time, seq, 4, target, arg))
                            else:
                                push(heap, (time, seq, 4, target, arg))
                            continue
                        executed += 1  # the WAKE item, run inline
                    if target._waiting_on is arg:
                        target._waiting_on = None
                        try:
                            arg = target._gen.send(None)
                        except BaseException as err:
                            if queued:
                                pop(heap)
                            target._finish(err)
                        else:
                            if type(arg) is float and arg >= 0.0:
                                self._seq = seq = self._seq + 1
                                target._waiting_on = seq
                                item = (time + arg, target._band or seq, 3,
                                        target, seq)
                                if queued:
                                    replace(heap, item)
                                else:
                                    push(heap, item)
                            else:
                                if queued:
                                    pop(heap)
                                target._wait(arg)
                    elif queued:
                        pop(heap)  # stale: the process was interrupted
                elif kind == 1:  # KIND_SUCCEED (the Timeout fast path)
                    if target._value is not _PENDING or target._exc is not None:
                        raise SimulationError(f"event {target!r} triggered twice")
                    target._value = arg
                    callbacks = target._callbacks
                    target._callbacks = None
                    if callbacks:
                        self._seq = seq = self._seq + 1
                        if (heap and heap[0][0] == time) or target is stop:
                            push(heap, (time, seq, 2, callbacks, target))
                        else:
                            executed += 1
                            for cb in callbacks:
                                cb(target)
                elif kind == 2:  # KIND_CALLBACKS
                    for cb in target:
                        cb(arg)
                else:  # KIND_CALL
                    target()
                if crashes and self.strict:
                    raise self._crash_error()
                if stop is not None and (
                    stop._value is not _PENDING or stop._exc is not None
                ):
                    break
            if self._dormant:
                self._stop_spins(last, stop)
        finally:
            self.events_executed += executed
            self.wall_seconds += perf_counter() - t0

    # -- dormant spins (DESIGN.md §8.1) -----------------------------------

    def _doze(self, spin: Spin, proc: Process, delay: float) -> bool:
        """Let ``proc``'s sleep of ``delay`` (its seq already counted) go
        dormant instead of being pushed, when ``spin`` has seen one full
        empty iteration run through the engine and can arm its guards.
        Never under a schedule policy or the opt-out."""
        if (spin.marks < 2 or self.schedule_policy is not None
                or self._spin_off or not spin.ready()):
            return False
        spin.guard(spin)
        spin.dormant = True
        spin.due = self._now + delay
        spin.delay = delay
        spin.phase = 0
        self._dormant[proc] = spin
        return True

    def _wake(self, spin: Spin, t: float, inclusive: bool) -> None:
        """Catch a dormant spinner up to instant ``t`` and queue it again:
        its pending sleep becomes an ordinary banded KIND_SLEEP item.

        Every sleep that would have run by now is replayed: each one due
        before ``t`` and, at ``t``, each one when ``inclusive`` (a run
        loop's bound, where everything due runs) or when its key is below
        that of the last banded sleep dispatched at ``t``.  Every ordinary
        item at ``t`` sorts before the spin's sleep, and the item running
        now either is that banded sleep or was pushed after it ran.

        While the pending sleep is the one the spin dozed on, the spin's
        :meth:`~repro.sim.process.Spin.skip` steps whole empty iterations
        arithmetically; every other replayed sleep resumes the spinner's
        own generator with the clock at the sleep's end, and the poll
        code does the accounting.  Each replayed sleep counts the two
        executed items and two sequence numbers the dispatch core would
        have.  A replayed iteration schedules nothing and yields only
        floats (a dormant spin yields no mark); anything else means a
        guard is missing, and is an error.
        """
        if not inclusive:
            at, key = self._banded
            inclusive = at == t and spin.key < key
        spin.guard(None)  # its own poll must not wake it
        queued = len(self._heap)
        now = self._now
        due, phase, sleeps = spin.due, spin.phase, spin.sleeps
        send = spin.loop.send
        steps = 0
        try:
            while due < t or (due == t and inclusive):
                if not phase:
                    due, n = spin.skip(due, t, inclusive)
                    steps += n * sleeps
                self._now = due
                delay = send(None)
                if type(delay) is not float or delay < 0.0:
                    raise SimulationError(
                        f"dormant spin of {spin.proc.name!r} yielded "
                        f"{delay!r} at t={due:.1f}ns; an empty poll "
                        "must only sleep")
                steps += 1
                # a stop point replays past the last item run: the clock
                # stops at the last sleep's end, as the dispatch core's would
                now = max(now, due)
                phase = (phase + 1) % sleeps
                due += delay
        except SimulationError:
            raise
        except BaseException as err:
            raise SimulationError(
                f"dormant spin of {spin.proc.name!r} failed on replay at "
                f"t={self._now:.1f}ns") from err
        finally:
            self._now = now
            # two executed items and two sequence numbers per sleep
            self.events_executed += 2 * steps
            self._seq += 2 * steps
        if len(self._heap) != queued:
            raise SimulationError("a dormant spin scheduled work on replay")
        proc = spin.proc
        del self._dormant[proc]
        spin.dormant = False
        spin.marks = 0
        heappush(self._heap,
                 (due, spin.key, KIND_SLEEP, proc, proc._waiting_on))

    def wake_dormant(self) -> None:
        """Wake every dormant spinner at the current instant: for anything
        about to read machine-wide state (metrics, samplers, tracing)."""
        if self._dormant:
            now = self._now
            for spin in list(self._dormant.values()):
                self._wake(spin, now, False)

    def _stop_spins(self, last: float, stop: Optional[Event]) -> None:
        """A run loop is about to return: bring every dormant spinner to
        where the slow path would have stopped it."""
        if stop is not None and (
                stop._value is not _PENDING or stop._exc is not None):
            self.wake_dormant()
        elif last == INFINITY:
            # nothing is left to schedule, so no poll can ever succeed:
            # the slow path would spin here forever
            names = ", ".join(repr(p.name) for p in self._dormant)
            raise SimulationError(
                f"spin never ends: nothing left to schedule at "
                f"t={self._now:.1f}ns while {names} polls")
        else:
            for spin in list(self._dormant.values()):
                self._wake(spin, last, True)

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the heap drains or ``until`` is reached.

        Items due exactly at ``until`` still run.  Returns the simulation
        time when execution stopped.  If a process crashed with an
        unhandled exception and ``strict`` is set (the default), the
        first crash is re-raised — silent process death is a debugging
        nightmare in a simulator of this size.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"cannot run until {until} < now {self._now}")
        self._dispatch(INFINITY if until is None else until)
        if until is not None:
            self._now = until
        if not self._heap:
            for hook in self.drain_hooks:
                hook()
        return self._now

    def run_until_triggered(self, ev: Event, limit: Optional[float] = None) -> Any:
        """Run until ``ev`` triggers; return its value.

        Raises :class:`DeadlockError` if the event queue drains first (a
        deadlock from the waiter's perspective) or :class:`SimulationError`
        when the time ``limit`` is hit.  When the deadlock watchdog is
        installed, the drained-queue error carries its wait-for graph.
        """
        if not ev.triggered:
            self._dispatch(INFINITY if limit is None else limit, ev)
            if not ev.triggered:
                if self._heap:
                    raise SimulationError(f"time limit {limit} hit before {ev!r}")
                msg = f"event queue drained before {ev!r} triggered (deadlock?)"
                dump = self.deadlock_dump
                if dump is not None:
                    detail = dump()
                    if detail:
                        msg += "\n" + detail
                raise DeadlockError(msg)
        return ev.value

    # -- introspection -----------------------------------------------------

    @property
    def pending_events(self) -> int:
        """Entries currently in the scheduling heap (diagnostics)."""
        return len(self._heap)

    @property
    def events_per_second(self) -> float:
        """Wall-clock kernel throughput: executed items / run-loop seconds.

        This is a *wall-clock* gauge — it varies run to run with host
        load, so the observability layer reports it under ``sim.wall``,
        which determinism comparisons must strip.
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_executed / self.wall_seconds
