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
executed items per sleep, tied or not.

Earlier revisions stored a closure per entry (``lambda: ev.succeed(v)``)
— one allocation per scheduled event plus an indirect call at dispatch.
The tagged-tuple layout removes both, which matters: the kernel executes
hundreds of thousands of items per wall second.

Time is a float in nanoseconds (see :mod:`repro.common.units`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush, heapreplace
from math import nextafter
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.common.errors import DeadlockError, SimulationError
from repro.sim.events import _PENDING, AllOf, Event, Timeout
from repro.sim.process import ProcGen, Process, Spin

#: scheduled-item kinds — element 2 of a heap entry.
KIND_CALL = 0
KIND_SUCCEED = 1
KIND_CALLBACKS = 2
KIND_SLEEP = 3
KIND_WAKE = 4

#: an unbounded run horizon.
INFINITY = float("inf")

#: the seq a replayed sleep's key adds per rank within one gap (see
#: :meth:`Engine._key`): exact below 2**32 sequence numbers.
_RANK_STEP = 2.0 ** -20

#: clock-log entries kept before the dormant spins catch up (bounds its
#: memory; see :meth:`Engine._catch_up`).
_LOG_CAP = 4096

#: how many replayed ends :meth:`Engine._find_starts` hashes at a time
#: (bounds its memory).
_SHARED_SLICE = 8192

#: how many distinct replayed instants :meth:`Engine._lockstep` hashes
#: at most to find lockstep blocks (bounds its memory).
_LOCKSTEP_ENDS = 8192

#: one heap entry: (time, seq, kind, target, arg).
ScheduledItem = Tuple[float, int, int, Any, Any]


class SchedulePolicy:
    """Chooses which of several same-timestamp items runs next.

    With a policy installed on :attr:`Engine.schedule_policy`, every run
    loop turns a group of heap entries tied at the minimal timestamp
    into an explicit *decision point*: the whole tie group is popped (in
    seq order, so ``ready[0]`` is what the default scheduler would run),
    :meth:`choose` picks one, and the rest re-enter the heap with their
    original sequence numbers — their relative order, and their order
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
    """Event loop, clock, and factory for events and processes."""

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
        "spin_ties",
        "_log",
        "_rank_gap",
        "_ranks",
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
        #: woken spins whose next sleep could not run where it would have
        #: (the tie rule, DESIGN.md §8.1): it ended at the instant of the
        #: guard that woke it, before that guard's item.  Kept out of the
        #: compared snapshot (``sim.wall``); 0 means every catch-up was
        #: exact.
        self.spin_ties = 0
        #: the clock log, kept while any spin is dormant: per executed
        #: item in run order, ``(time, seq, counter)``, its key and the
        #: seq counter before it ran (see :meth:`_key`).
        self._log: List[Tuple[float, Any, int]] = []
        #: the gap (the seq counter value) replayed steps last handed
        #: keys out in, and how many per instant (see :meth:`_key`).
        self._rank_gap = -1
        self._ranks: Dict[float, int] = {}

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
        earlier and has a larger ``seq``, so it stays at ``heap[0]``.
        The item that follows it (the KIND_WAKE, or the resumed
        process's next sleep) takes its place with one ``heapreplace``
        instead of a pop and a push.  The tie test looks past it, at
        ``heap[1]`` and ``heap[2]``, the only places the next-earliest
        item can sit.  Every other exit pops it before calling anything
        that could raise or schedule, so it never outlives its own
        dispatch.  Pop order depends only on the set of queued
        ``(time, seq)`` keys, never on the heap's layout, so nothing
        observable moves.  Under a schedule policy a lone item takes the
        same path; a tie group goes to :meth:`_pop_decision`, which pops
        the chosen item itself (``queued`` is then False).
        """
        heap = self._heap
        crashes = self._crashes
        policy = self.schedule_policy
        pop, push, replace = heappop, heappush, heapreplace
        dormant = self._dormant
        log = self._log.append
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
                    queued = True  # replaced or popped below
                else:
                    pop(heap)
                self._now = time
                executed += 1
                if dormant:
                    log((time, _seq, self._seq))
                    if len(self._log) > _LOG_CAP:
                        self._catch_up(time)
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
                        if dormant:
                            log((time, seq, seq))
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
                                item = (time + arg, seq, 3, target, seq)
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
                            if dormant:
                                log((time, seq, seq))
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

    def _doze(self, spin: Spin, proc: Process, delay: float, seq: int) -> bool:
        """Let ``proc``'s sleep of ``delay`` (token ``seq``, already
        counted) go dormant instead of being pushed, when ``spin`` has
        seen one full empty iteration run through the engine and can arm
        its guards.  Never under a schedule policy or the opt-out."""
        if (spin.marks < 2 or self.schedule_policy is not None
                or self._spin_off or not spin.ready()):
            return False
        spin.guard(spin)
        spin.dormant = True
        spin.due = self._now + delay
        spin.token = seq
        self._dormant[proc] = spin
        return True

    def _replay(self, t: float, inclusive: bool) -> None:
        """Run every dormant sleep due before ``t`` (at or before it when
        ``inclusive``), for every dormant spinner, then key what is left.

        A replayed sleep resumes its spinner's own generator with the
        clock at the sleep's end, and counts the two executed items and
        two sequence numbers the dispatch core would have; the poll code
        does all the rest of the accounting.  An empty iteration
        schedules nothing and yields only floats (and its mark); anything
        else means a guard is missing, and is an error.  Only the
        engine's own bookkeeping depends on the order the spinners'
        sleeps would have run in, so each spinner replays alone, and
        :meth:`_key` then gives each its next sleep's key.
        """
        replayed: List[Tuple[Spin, "array[float]"]] = []
        queued = len(self._heap)
        now = latest = self._now
        steps = 0
        spin = None
        try:
            for spin in self._dormant.values():
                due = spin.due
                if due > t or (due == t and not inclusive):
                    continue
                spin.guard(None)  # its own poll must not wake it
                send = spin.loop.send
                ends = array("d", (due,))
                while True:
                    self._now = due
                    delay = send(None)
                    if type(delay) is not float or delay < 0.0:
                        delay = self._replay_delay(spin, delay, due)
                    due = due + delay
                    if due > t or (due == t and not inclusive):
                        break
                    ends.append(due)
                spin.due = due
                spin.guard(spin)
                steps += len(ends)
                replayed.append((spin, ends))
                # a stop point replays past the last item run: the clock
                # stops at the last step, as the dispatch core's would
                latest = max(latest, ends[-1])
        except SimulationError:
            raise
        except BaseException as err:
            raise SimulationError(
                f"dormant spin of {spin.proc.name!r} failed on replay at "
                f"t={self._now:.1f}ns") from err
        finally:
            self._now = latest
            # two executed items and two sequence numbers per sleep
            self.events_executed += 2 * steps
            self._seq += 2 * steps
        if len(self._heap) != queued:
            raise SimulationError("a dormant spin scheduled work on replay")
        if replayed:
            self._key(replayed, self._seq - 2 * steps)

    @staticmethod
    def _replay_delay(spin: Spin, delay: Any, due: float) -> float:
        """The sleep a replayed WAKE ends in, past any marks."""
        while isinstance(delay, Spin):  # a later iteration's mark
            delay = spin.loop.send(None)
        if not isinstance(delay, float) or delay < 0.0:
            raise SimulationError(
                f"dormant spin of {spin.proc.name!r} yielded {delay!r} at "
                f"t={due:.1f}ns; an empty poll must only sleep")
        return delay

    def _key(self, replayed: List[Tuple[Spin, "array[float]"]],
             counter: int) -> None:
        """Give each replayed spinner's next sleep the key its item would
        have had, walking the replayed SLEEPs and WAKEs in the order
        their items would have run.

        A sleep's seq is handed out by the WAKE of the sleep before it,
        so it goes just after every seq handed out before that WAKE
        would have run, found in the clock log: ``c + 0.5`` sorts
        between ``c`` and ``c + 1``.  Keys handed out in one gap for one
        instant are ranked in the order their WAKEs run; a rank adds
        ``2**-20``.  A SLEEP runs its WAKE inline unless another item,
        logged or replayed, was queued at its instant; then the WAKE
        waits its turn, keyed where the SLEEP ran, as its item would
        have.  A sleep ending at an instant nothing else shares has its
        place fixed by that instant alone, whatever its key, so each
        spinner's walk starts at its last such sleep
        (:meth:`_find_starts`).

        Spins in lockstep, whose sleeps all end at the same instants,
        which no other replayed sleep and no logged item shares, keep
        their order from one instant to the next: each SLEEP finds the
        others queued and defers its WAKE, all in one gap.  Such a block
        starts its walks at its last sleeps, in the order of the keys its
        members started with.
        """
        keys: Dict[int, float] = {}
        shapes = {(len(ends), ends[0], ends[-1]) for _spin, ends in replayed}
        if len(shapes) < len(replayed):  # maybe some spins in lockstep
            keys = self._lockstep(replayed)
        rest = [i for i in range(len(replayed)) if i not in keys]
        starts = dict(zip(rest, self._find_starts(
            [replayed[i] for i in rest]) if rest else []))
        walk = []
        for i, (spin, ends) in enumerate(replayed):
            if i in keys:
                walk.append((len(ends) - 1, keys[i]))
            else:
                k = starts[i]
                # from the start its key is known; elsewhere it does not
                # matter
                walk.append((max(k, 0), spin.token if k < 0 else -1.0))
        self._key_walk(replayed, counter, walk)

    def _find_starts(self, replayed: List[Tuple[Spin, "array[float]"]]
                     ) -> List[int]:
        """Where each spinner's walk starts: at its last sleep when no end
        of its is shared (with another replayed sleep or a logged item),
        else just before its first shared one (-1: from its first sleep).
        Every sleep sharing an instant is then walked, and every walk
        starts at an instant nobody shares.  Searched back from the last
        sleeps a slice of about ``_SHARED_SLICE`` ends at a time, until
        every start is known."""
        log = self._log
        firsts: List[Optional[int]] = [None] * len(replayed)
        step = max(1, _SHARED_SLICE // len(replayed))
        hi = INFINITY
        back = 1
        while True:
            since = min(ends[max(0, len(ends) - back)]
                        for _spin, ends in replayed)
            seen: set = set()
            shared: set = set()
            spans = []
            for _spin, ends in replayed:
                a, b = bisect_left(ends, since), bisect_left(ends, hi)
                mine = set(ends[a:b])
                shared |= seen & mine
                seen |= mine
                spans.append((a, b))
            shared |= seen.intersection(
                [item[0] for item in
                 log[bisect_left(log, (since,)):bisect_left(log, (hi,))]])
            unknown = False
            for i, ((a, b), (_spin, ends)) in enumerate(zip(spans, replayed)):
                if shared and not shared.isdisjoint(ends[a:b]):
                    firsts[i] = next(k for k in range(a, b)
                                     if ends[k] in shared)
                f = firsts[i]
                if f and ends[f - 1] < since:
                    unknown = True  # shared before ``since``?
            if not unknown or since <= min(ends[0] for _s, ends in replayed):
                return [len(ends) - 1 if f is None else f - 1
                        for f, (_spin, ends) in zip(firsts, replayed)]
            hi = since
            back += step

    def _lockstep(self, replayed: List[Tuple[Spin, "array[float]"]]
                  ) -> Dict[int, float]:
        """The replayed spinners in lockstep blocks (see :meth:`_key`),
        by index, each with a key for its last sleep that orders it
        within its block."""
        blocks: Dict[bytes, List[int]] = {}
        for i, (_spin, ends) in enumerate(replayed):
            blocks.setdefault(ends.tobytes(), []).append(i)
        if len(blocks) == len(replayed) or sum(
                len(replayed[members[0]][1]) for members in blocks.values()
        ) > _LOCKSTEP_ENDS:
            return {}
        seen: set = set()
        shared: set = set()
        for members in blocks.values():
            mine = set(replayed[members[0]][1])
            shared |= seen & mine
            seen |= mine
        log = self._log
        lo = bisect_left(log, (min(seen),))
        shared |= seen.intersection([item[0] for item in log[lo:]])
        keys: Dict[int, float] = {}
        for members in blocks.values():
            if len(members) > 1 and shared.isdisjoint(replayed[members[0]][1]):
                members.sort(key=lambda i: replayed[i][0].token)
                for rank, i in enumerate(members):
                    keys[i] = float(rank)
        return keys

    def _key_walk(self, replayed: List[Tuple[Spin, "array[float]"]],
                  counter: int, starts: List[Tuple[int, Any]]) -> None:
        """Walk :meth:`_key`'s steps from each spinner's start: the index
        of a sleep and the key to order it by there."""
        log = self._log
        n = len(log)
        # per spinner: the sleeps' ends, the next one's index, and what
        # runs next (a SLEEP, or the WAKE its SLEEP deferred)
        state = []
        queue: List[Tuple[float, Any, int]] = []
        for i, ((spin, ends), (k, key)) in enumerate(zip(replayed, starts)):
            state.append([spin, ends, k, KIND_SLEEP])
            queue.append((ends[k], key, i))
        heapify(queue)
        j = bisect_left(log, (queue[0][0],))
        while queue:
            due, key, i = queue[0]
            row = state[i]
            spin, ends = row[0], row[1]
            # the first item that ran after this step would have
            j = bisect_right(log, (due, key), j)
            c = log[j][2] if j < n else counter
            if row[3] == KIND_SLEEP and (
                    (j < n and log[j][0] == due)
                    or (len(queue) > 1 and queue[1][0] == due)
                    or (len(queue) > 2 and queue[2][0] == due)):
                row[3] = KIND_WAKE  # tied: the WAKE waits its turn
            else:
                row[3] = KIND_SLEEP
                row[2] += 1
                due = ends[row[2]] if row[2] < len(ends) else spin.due
            key = self._ranked(c, due)
            if row[2] == len(ends):
                spin.token = key
                heappop(queue)
            else:
                heapreplace(queue, (due, key, i))

    def _ranked(self, c: int, due: float) -> float:
        """The next key in gap ``c`` for a sleep ending at ``due``: keys
        are handed out gap by gap, in increasing order."""
        ranks = self._ranks
        if c != self._rank_gap:
            self._rank_gap = c
            ranks.clear()
        rank = ranks.get(due, 0)
        ranks[due] = rank + 1
        return c + 0.5 + rank * _RANK_STEP

    def _wake(self, spin: Spin, t: float, inclusive: bool) -> None:
        """Catch a dormant spinner up to instant ``t`` (every dormant
        spinner, so that their keys are handed out in order) and queue
        it again: its next sleep becomes an ordinary KIND_SLEEP item with
        the key it would have had."""
        self._replay(t, inclusive)
        proc = spin.proc
        del self._dormant[proc]
        spin.guard(None)
        spin.dormant = False
        spin.marks = 0
        due, key = spin.due, spin.token
        log = self._log
        if due == t and not inclusive and log and log[-1][0] == t \
                and key < log[-1][1]:
            # the tie rule: the sleep would have ended before the item
            # running now, the guard's own; it ends right after it
            self.spin_ties += 1
            key = nextafter(log[-1][1], INFINITY)
        proc._waiting_on = key
        heappush(self._heap, (due, key, KIND_SLEEP, proc, key))
        self._trim_log()

    def _trim_log(self) -> None:
        """Drop what no dormant sleep can still need: the clock log
        before the earliest one's end, or all of it once none is left."""
        log = self._log
        if self._dormant:
            first = min(spin.due for spin in self._dormant.values())
            del log[:bisect_left(log, (first,))]
        else:
            del log[:]

    def _catch_up(self, t: float) -> None:
        """Replay the dormant sleeps ending before ``t`` without waking
        anyone, so the clock log can shrink (every ``_LOG_CAP`` items)."""
        self._replay(t, False)
        self._trim_log()

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
