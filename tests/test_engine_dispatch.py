"""The dispatch core's same-instant callback inlining.

A fired Timeout with waiters owes a KIND_CALLBACKS item at its own
instant.  The core runs those callbacks inline when nothing else is
queued at that instant; these tests pin down that the shortcut is
invisible: wake order, ``events_executed`` and schedule-policy decision
points are those of the pushed form.
"""

from heapq import heappop, heappush

import pytest

import repro
from repro.mp import BasicPort, vdst_for
from repro.shard import run_scenario, scenario
from repro.sim.engine import Engine, SchedulePolicy
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
    fired Timeout with waiters queues its KIND_CALLBACKS item."""
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
def test_one_shard_runs_one_window_per_phase(name):
    # no channel is cut at shards=1, so nothing bounds a window: each
    # phase (one for "mixed", two for "shm_hash") drains in one
    scn = scenario(name)
    run = run_scenario(scn, n_nodes=4, shards=1)
    assert run.windows == scn.phases
