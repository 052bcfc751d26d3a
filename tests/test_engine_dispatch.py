"""The dispatch core's same-instant callback inlining.

A fired Timeout with waiters owes a KIND_CALLBACKS item at its own
instant.  The core runs those callbacks inline when nothing else is
queued at that instant; these tests pin down that the shortcut is
invisible: wake order, ``events_executed`` and schedule-policy decision
points are those of the pushed form.  A float sleep owes a KIND_WAKE
item the same way, and a program that sleeps with ``yield d`` must run
exactly as the one that yields ``Timeout(engine, d)``.
"""

from heapq import heappop, heappush

import pytest

import repro
from repro.mp import BasicPort, vdst_for
from repro.scenarios import ScenarioMachine, scenario
from repro.common.errors import SimulationError
from repro.explore.conflict import conflict_key
from repro.sim.engine import Engine, SchedulePolicy
from repro.sim.events import Timeout
from repro.sim.process import BAND, Interrupt
from repro.sim.resource import PriorityResource


class _Recorder(SchedulePolicy):
    """Canonical choices, recording every decision point it is offered."""

    def __init__(self):
        self.points = []

    def choose(self, time, ready):
        self.points.append((time, [(item[1], item[2]) for item in ready]))
        return 0


def test_tied_timeout_wakes_waiter_after_queued_item(engine):
    order = []

    def waiter():
        yield engine.timeout(10.0)
        order.append("waiter")

    engine.process(waiter())
    engine.run(until=5.0)
    # queued at t=10 after the timeout: its KIND_CALLBACKS item must go
    # behind this one, so the waiter resumes second
    engine._schedule_call(lambda: order.append("queued"), delay=5.0)
    engine.run()
    assert order == ["queued", "waiter"]


def test_untied_timeout_still_counts_two_items(engine):
    def sleeper():
        for _ in range(3):
            yield engine.timeout(7.0)

    engine.process(sleeper())
    engine.run()
    # first step + three (SUCCEED, CALLBACKS) pairs + the process's own
    # completion, which has no waiters and so owes no callbacks item
    assert engine.events_executed == 1 + 3 * 2
    assert engine.now == 21.0


def test_untied_timeout_keeps_sequence_numbers(engine):
    def sleeper():
        yield engine.timeout(4.0)

    engine.process(sleeper())
    engine.run()
    # process creation, the timeout, and the inlined callbacks item each
    # take one sequence number, as they would with the item pushed
    assert engine._seq == 3


def _reference_run(eng):
    """The pushed form: a dispatch loop that never inlines, so every
    fired Timeout with waiters queues its KIND_CALLBACKS item and every
    float sleep its KIND_WAKE item.  Every item is popped, so a banded
    sleep (a spinning process's, keyed ``BAND`` plus its spin's index)
    runs after every ordinary item due at its instant, those its own
    poll pushes included; its WAKE takes an ordinary seq."""
    heap = eng._heap
    policy = eng.schedule_policy
    while heap:
        if policy is None:
            time, _seq, kind, target, arg = heappop(heap)
        else:
            time, _seq, kind, target, arg = eng._pop_decision(policy)
        eng._now = time
        eng.events_executed += 1
        if kind == 2:
            for cb in target:
                cb(arg)
        elif kind == 1:
            target._value = arg
            callbacks, target._callbacks = target._callbacks, None
            if callbacks:
                eng._seq += 1
                heappush(heap, (time, eng._seq, 2, callbacks, target))
        elif kind == 3:
            eng._seq += 1
            heappush(heap, (time, eng._seq, 4, target, arg))
        elif kind == 4:
            # the end of a float sleep: resume with None, as the
            # equivalent Timeout's waiter would, unless interrupted
            if target._waiting_on is arg:
                target._waiting_on = None
                target._resume()
        else:
            target()


def _sleepers(eng, order):
    def proc(tag, delays):
        for d in delays:
            yield eng.timeout(d)
            order.append((tag, eng.now))

    # a mix of tied and untied wakeups
    eng.process(proc("a", (5.0, 5.0, 3.0)))
    eng.process(proc("b", (5.0, 8.0)))
    eng.process(proc("c", (13.0,)))


def _record(setup, runner):
    eng = Engine()
    eng.schedule_policy = rec = _Recorder()
    order = []
    setup(eng, order)
    runner(eng)
    return rec.points, order, eng.events_executed, eng._seq


def test_policy_sees_the_pushed_form_decision_points():
    inlined = _record(_sleepers, lambda eng: eng.run())
    pushed = _record(_sleepers, _reference_run)
    assert inlined == pushed
    points, order, executed, _seq = inlined
    assert points and len(order) == 6
    # 3 first steps + 6 timeouts (SUCCEED + CALLBACKS each); the process
    # completions have no waiters and owe no callbacks item
    assert executed == 3 + 6 * 2


def test_policy_free_run_matches_policy_run():
    _points, order, executed, seq = _record(_sleepers, lambda eng: eng.run())
    eng = Engine()
    order2 = []
    _sleepers(eng, order2)
    eng.run()
    assert (order2, eng.events_executed, eng._seq) == (order, executed, seq)


def test_machine_decision_points_match_pushed_form(monkeypatch):
    """Bus arbitration, snooping, cache fills and a Basic-message receive
    spin on a real node board: the same decision points, seq numbers and
    executed count, with some bus grants queued rather than immediate."""
    queued = []
    request = PriorityResource.request

    def counting_request(self, priority=0):
        # only reached when try_acquire found the bus taken
        queued.append(self.name)
        return request(self, priority)

    monkeypatch.setattr(PriorityResource, "request", counting_request)

    def machine_run(runner):
        m = repro.StarTVoyager(repro.default_config(n_nodes=2))
        m.engine.schedule_policy = rec = _Recorder()
        ports = [BasicPort(m.node(n), 0, 0) for n in range(2)]

        def prog(api, base):
            for i in range(3):
                yield from api.store_u32(base + 64 * i, i)
                yield from api.compute(10)
            total = 0
            for i in range(3):
                total += yield from api.load_u32(base + 64 * i)
            return total

        def spin(api):
            # polls the rx producer pointer until node 0's message lands
            return (yield from ports[1].recv(api))

        def ping(api):
            yield from api.compute(200)
            yield from ports[0].send(api, vdst_for(1, 0), b"ping")

        procs = [m.spawn(n, prog, 0x2000) for n in range(2)]
        # a second program on node 0's aP, contending for its bus
        procs.append(m.spawn(0, prog, 0x4000))
        procs.append(m.spawn(1, spin))
        procs.append(m.spawn(0, ping))
        runner(m.engine)
        return (rec.points, [p.value for p in procs],
                m.engine.events_executed, m.engine._seq, m.now)

    inlined = machine_run(lambda eng: eng.run())
    assert queued and set(queued) <= {"bus0.arb", "bus1.arb"}
    del queued[:]
    assert inlined == machine_run(_reference_run)
    assert inlined[1] == [3, 3, 3, (0, b"ping"), None]
    assert len(inlined[0]) > 0


def test_banded_sleeps_reach_decision_points():
    """Two nodes receive in lockstep: their spins' banded sleeps tie at
    every poll instant, and a policy sees the same decision points as
    in the pushed form."""

    def machine_run(runner):
        m = repro.StarTVoyager(repro.default_config(n_nodes=2))
        m.engine.schedule_policy = rec = _Recorder()
        ports = [BasicPort(m.node(n), 0, 0) for n in range(2)]

        def spin(api, n):
            return (yield from ports[n].recv(api))

        def ping(api, n):
            yield from api.compute(200)
            yield from ports[n].send(api, vdst_for(1 - n, 0), b"ping")

        procs = [m.spawn(n, spin, n) for n in range(2)]
        procs += [m.spawn(n, ping, n) for n in range(2)]
        runner(m.engine)
        return (rec.points, [p.value for p in procs],
                m.engine.events_executed, m.engine._seq, m.now)

    inlined = machine_run(lambda eng: eng.run())
    assert inlined == machine_run(_reference_run)
    assert inlined[1] == [(1, b"ping"), (0, b"ping"), None, None]
    assert any(key >= BAND for _t, ready in inlined[0] for key, _k in ready)


# ----------------------------------------------------------------------
# float sleeps: the Timeout form's items, without the Event
# ----------------------------------------------------------------------

#: a sleep's items stand where the Timeout's stood: SLEEP for SUCCEED,
#: WAKE for CALLBACKS
_AS_TIMEOUT_KIND = {3: 1, 4: 2}


def _timeout_form(eng, d):
    return Timeout(eng, d)


def _sleep_form(eng, d):
    return d


def _tie_programs(eng, sleep, out):
    def proc(tag, delays):
        for d in delays:
            yield sleep(eng, d)
            out.append((tag, eng.now))
        return tag

    # b and c wake at t=5 together; a's second wake ties with b's
    eng._schedule_call(lambda: out.append(("call", eng.now)), delay=10.0)
    return [eng.process(proc("a", (5.0, 5.0, 3.0))),
            eng.process(proc("b", (5.0, 5.0))),
            eng.process(proc("c", (5.0,)))]


def _untied_programs(eng, sleep, out):
    def proc():
        for d in (2.0, 7.5, 0.25):
            yield sleep(eng, d)
            out.append(eng.now)
        return len(out)

    return [eng.process(proc())]


def _interrupt_programs(eng, sleep, out):
    def victim():
        try:
            yield sleep(eng, 10.0)
        except Interrupt as intr:
            out.append((intr.cause, eng.now))
        # still asleep when the stale item from the first sleep fires
        yield sleep(eng, 9.0)
        out.append(("woke", eng.now))
        return "done"

    def interrupter(target):
        yield sleep(eng, 4.0)
        target.interrupt("poke")

    v = eng.process(victim())
    return [v, eng.process(interrupter(v))]


def _negative_programs(eng, sleep, out):
    def proc():
        try:
            yield sleep(eng, -1.0)
        except SimulationError as err:
            out.append((str(err), eng.now))
        yield sleep(eng, 3.0)
        return eng.now

    return [eng.process(proc())]


def _both_forms(programs):
    """Run ``programs`` once per sleep form under a recording policy."""
    runs = []
    for sleep in (_timeout_form, _sleep_form):
        eng = Engine()
        eng.schedule_policy = rec = _Recorder()
        out = []
        procs = programs(eng, sleep, out)
        eng.run()
        points = [(t, [(seq, _AS_TIMEOUT_KIND.get(kind, kind))
                       for seq, kind in ready])
                  for t, ready in rec.points]
        runs.append((points, out, [p.value for p in procs],
                     eng.events_executed, eng._seq, eng.now))
    return runs


@pytest.mark.parametrize("programs", [
    _tie_programs, _untied_programs, _interrupt_programs, _negative_programs,
], ids=["tie", "untied", "interrupt", "negative"])
def test_sleep_matches_timeout_form(programs):
    timeout_run, sleep_run = _both_forms(programs)
    assert sleep_run == timeout_run
    assert sleep_run[1]  # the programs did run


def test_sleep_cases_exercise_their_paths():
    tie = _both_forms(_tie_programs)[1]
    assert tie[0]  # same-instant ties reached the policy
    untied = _both_forms(_untied_programs)[1]
    assert untied[0] == [] and untied[3] == 1 + 3 * 2
    interrupted = _both_forms(_interrupt_programs)[1]
    assert interrupted[1] == [("poke", 4.0), ("woke", 13.0)]
    negative = _both_forms(_negative_programs)[1]
    assert negative[1] == [("negative timeout -1.0", 0.0)]
    assert negative[2] == [3.0]


def test_sleep_items_classify_like_the_timeout_items():
    def programs(eng, sleep, out):
        def proc():
            yield sleep(eng, 5.0)

        return [eng.process(proc(), name="p"), eng.process(proc(), name="q")]

    keys = []
    for sleep in (_timeout_form, _sleep_form):
        eng = Engine()
        eng.schedule_policy = rec = _Recorder()
        seen = []
        choose = rec.choose

        def keyed_choose(time, ready, choose=choose, seen=seen):
            seen.append([(item[2], conflict_key(item)) for item in ready])
            return choose(time, ready)

        rec.choose = keyed_choose
        programs(eng, sleep, [])
        eng.run()
        keys.append(seen)
    timeout_keys, sleep_keys = keys
    # first steps, then both expiries tied at t=5, then the second
    # expiry against the first one's pushed wake-up
    assert [k for k, _ in sleep_keys[1]] == [3, 3]
    assert [k for k, _ in sleep_keys[2]] == [3, 4]
    strip = [[key for _, key in group] for group in sleep_keys]
    assert strip == [[key for _, key in group] for group in timeout_keys]
    assert strip[2] == [("proc", ("q",)), ("proc", ("p",))]


def test_bad_yield_names_both_accepted_forms(engine):
    def body():
        yield 40  # an int: not a float delay

    proc = engine.process(body())
    with pytest.raises(SimulationError):
        engine.run()
    assert "an Event or a float delay in ns" in str(proc.exception)


# ----------------------------------------------------------------------
# peek, then replace: the sleep's item stays at heap[0] while it runs
# ----------------------------------------------------------------------


def _crowd_programs(eng, out):
    """64 processes over a deep heap: sleeps that tie at one instant in
    every heap position, a crash right after an untied wake-up and an
    interrupt that leaves a stale sleep item behind."""

    def sleeper(i):
        for step in range(12):
            yield float(1 + (i * 5 + step * 7) % 11)
            out.append((i, eng.now))

    def crasher():
        yield 3.5
        yield 2.25  # lands alone at t=5.75: an inlined wake
        raise RuntimeError("boom")

    def victim():
        try:
            yield 50.0
        except Interrupt as intr:
            out.append((intr.cause, eng.now))
        yield 1.0
        out.append(("victim", eng.now))

    def interrupter(target):
        yield 4.0
        target.interrupt("poke")

    procs = [eng.process(sleeper(i), name=f"s{i}") for i in range(61)]
    v = eng.process(victim(), name="victim")
    procs += [eng.process(crasher(), name="crasher"), v,
              eng.process(interrupter(v), name="interrupter")]
    return procs


def _right_child_tie_programs(eng, out):
    """a and b both wake at t=5 with a later item between them, so the
    heap reads [a@5, call@6, b@5]: a's tie sits at heap[2], not heap[1]."""

    def sleeper(tag):
        yield 5.0
        out.append((tag, eng.now))

    procs = [eng.process(sleeper("a"), name="a"),
             eng.process(sleeper("b"), name="b")]
    eng._schedule_call(lambda: out.append(("call", eng.now)), delay=6.0)
    return procs


def _spied_run(programs, runner, policy, monkeypatch):
    """Run ``programs`` once; returns everything the pushed form fixes,
    and the heap positions at which a queued sleep found its tie."""
    import repro.sim.engine as engine_mod

    tie_at = set()
    replace = engine_mod.heapreplace

    def spying_replace(heap, item):
        if item[2] == 4:  # a WAKE queued because another item tied
            tie_at.add(1 if len(heap) > 1 and heap[1][0] == item[0] else 2)
        return replace(heap, item)

    monkeypatch.setattr(engine_mod, "heapreplace", spying_replace)
    eng = Engine()
    eng.strict = False  # a crash is recorded; the run goes on
    rec = _Recorder()
    if policy:
        eng.schedule_policy = rec
    out = []
    procs = programs(eng, out)
    runner(eng)
    return (rec.points, out, eng.events_executed, eng._seq, eng.now,
            [(p.name, repr(exc)) for p, exc in eng._crashes],
            [p.value for p in procs if p.ok]), tie_at


@pytest.mark.parametrize("policy", [True, False], ids=["policy", "free"])
def test_64_process_heap_matches_pushed_form(policy, monkeypatch):
    inlined, tie_at = _spied_run(_crowd_programs, lambda eng: eng.run(),
                                 policy, monkeypatch)
    pushed, _ = _spied_run(_crowd_programs, _reference_run, policy,
                           monkeypatch)
    assert inlined == pushed
    points, out, executed, _seq, _now, crashes, values = inlined
    assert ("poke", 4.0) in out and ("victim", 5.0) in out
    assert crashes == [("crasher", "RuntimeError('boom')")]
    assert len(out) == 61 * 12 + 2 and len(values) == 63
    # two items per sleep, SLEEP and WAKE, inlined or not
    assert executed > 2 * 61 * 12
    if policy:
        assert len(points) > 10  # the crowd's ties reached the policy
    else:
        assert points == [] and 1 in tie_at


@pytest.mark.parametrize("policy", [True, False], ids=["policy", "free"])
def test_tie_at_the_right_child_matches_pushed_form(policy, monkeypatch):
    inlined, tie_at = _spied_run(_right_child_tie_programs,
                                 lambda eng: eng.run(), policy, monkeypatch)
    pushed, _ = _spied_run(_right_child_tie_programs, _reference_run,
                           policy, monkeypatch)
    assert inlined == pushed
    points, out = inlined[:2]
    assert out == [("a", 5.0), ("b", 5.0), ("call", 6.0)]
    if policy:
        assert {t for t, _ready in points} == {0.0, 5.0}
    else:
        assert tie_at == {2}


@pytest.mark.parametrize("bad", ["raise", "yield_int"])
def test_failed_wake_leaves_no_item_queued(bad):
    eng = Engine()
    seen = []

    def failing():
        yield 2.0  # alone at t=2: the core wakes it inline
        if bad == "raise":
            raise ValueError("boom")
        yield 7  # not a float: the process fails in Process._wait

    def bystander():
        yield 10.0
        seen.append(eng.now)

    proc = eng.process(failing(), name="failing")
    eng.process(bystander(), name="bystander")
    with pytest.raises(SimulationError):
        eng.run()
    assert eng.now == 2.0 and not proc.ok
    assert all(item[3] is not proc for item in eng._heap)
    # the engine carries on with what is left
    eng._crashes.clear()
    eng.run()
    assert seen == [10.0] and eng.pending_events == 0


def test_run_until_triggered_leaves_target_callbacks_queued(engine):
    ev = engine.timeout(3.0, "v")
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert engine.run_until_triggered(ev) == "v"
    # the loop stops as soon as its target triggers; the waiters run on
    # the next call, at the same instant
    assert seen == [] and engine.pending_events == 1
    engine.run()
    assert seen == ["v"] and engine.now == 3.0


@pytest.mark.parametrize("name", ["mixed", "shm_hash"])
def test_one_shard_runs_one_window_per_phase(name, monkeypatch):
    # each phase (one for "mixed", two for "shm_hash") spawns its
    # programs and drains in one Engine.run(): the next phase's programs
    # start at that drain instant, and drain hooks fire at every drain
    scn = scenario(name)
    config = repro.default_config(n_nodes=4)
    config.sanitize = "credit"
    scn.prepare(config)
    runner = ScenarioMachine(config, scn)
    machine = runner.machine
    drains, starts = [], []
    credit = machine.sanitizers.checker("credit")
    check_credits = credit.on_drain

    def on_drain():
        drains.append(machine.now)
        check_credits()

    monkeypatch.setattr(credit, "on_drain", on_drain)
    spawn = machine.spawn

    def probed_spawn(node, program, *args, **kwargs):
        phase = len(drains)

        def probe(api, *a):
            starts.append((phase, api.now))
            return (yield from program(api, *a))

        return spawn(node, probe, *args, **kwargs)

    monkeypatch.setattr(machine, "spawn", probed_spawn)
    run = runner.run()
    assert run.windows == scn.phases
    assert len(drains) == scn.phases and drains == sorted(set(drains))
    assert {phase for phase, _ in starts} == set(range(scn.phases))
    for phase, t in starts:
        assert t == (drains[phase - 1] if phase else 0.0)
