"""Resources: FIFO grants, priority arbitration, utilization accounting."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resource import PriorityResource, Resource


def test_grant_when_free(engine):
    res = Resource(engine)
    ev = res.request()
    assert ev.triggered
    assert res.in_use == 1


def test_fifo_grant_order(engine):
    res = Resource(engine)
    order = []

    def user(name, hold):
        yield res.request()
        order.append(("got", name, engine.now))
        yield engine.timeout(hold)
        res.release()

    for i in range(3):
        engine.process(user(i, 10.0))
    engine.run()
    assert [x[1] for x in order] == [0, 1, 2]
    assert [x[2] for x in order] == [0.0, 10.0, 20.0]


def test_capacity_two(engine):
    res = Resource(engine, capacity=2)
    times = []

    def user(hold):
        yield res.request()
        times.append(engine.now)
        yield engine.timeout(hold)
        res.release()

    for _ in range(4):
        engine.process(user(10.0))
    engine.run()
    assert times == [0.0, 0.0, 10.0, 10.0]


def test_release_idle_rejected(engine):
    res = Resource(engine)
    with pytest.raises(SimulationError):
        res.release()


def test_using_helper(engine):
    res = Resource(engine)

    def user():
        yield from res.using(25.0)
        return engine.now

    p = engine.process(user())
    assert engine.run_until_triggered(p) == 25.0
    assert res.in_use == 0


def test_utilization(engine):
    res = Resource(engine)

    def user():
        yield from res.using(40.0)
        yield engine.timeout(60.0)

    p = engine.process(user())
    engine.run_until_triggered(p)
    assert res.busy_time() == pytest.approx(40.0)
    assert res.utilization() == pytest.approx(0.4)


def test_priority_grant_order(engine):
    res = PriorityResource(engine)
    order = []

    def holder():
        yield res.request(0)
        yield engine.timeout(10.0)
        res.release()

    def waiter(name, priority):
        yield engine.timeout(1.0)  # queue up behind the holder
        yield res.request(priority)
        order.append(name)
        res.release()

    engine.process(holder())
    engine.process(waiter("low", 5))
    engine.process(waiter("high", 0))
    engine.process(waiter("mid", 2))
    engine.run()
    assert order == ["high", "mid", "low"]


def test_priority_fifo_among_equals(engine):
    res = PriorityResource(engine)
    order = []

    def holder():
        yield res.request(0)
        yield engine.timeout(5.0)
        res.release()

    def waiter(name):
        yield engine.timeout(1.0)
        yield res.request(1)
        order.append(name)
        res.release()

    engine.process(holder())
    for name in ("a", "b", "c"):
        engine.process(waiter(name))
    engine.run()
    assert order == ["a", "b", "c"]


def test_queue_length(engine):
    res = Resource(engine)
    res.request()
    res.request()
    res.request()
    assert res.queue_length == 2


def test_capacity_must_be_positive(engine):
    with pytest.raises(SimulationError):
        Resource(engine, capacity=0)


@pytest.mark.parametrize("cls", [Resource, PriorityResource])
def test_try_acquire_takes_a_free_unit_without_scheduling(engine, cls):
    res = cls(engine)
    assert res.try_acquire() is True
    assert res.in_use == 1
    assert engine._seq == 0 and engine.pending_events == 0


@pytest.mark.parametrize("cls", [Resource, PriorityResource])
def test_try_acquire_accounts_busy_time_like_request(cls):
    def held(take):
        eng = Engine()
        res = cls(eng)

        def user():
            yield eng.timeout(5.0)
            yield from take(res)
            yield eng.timeout(20.0)
            res.release()
            yield eng.timeout(5.0)

        eng.process(user())
        eng.run()
        return res.busy_time(), res.utilization(), eng.events_executed, eng._seq

    def by_request(res):
        yield res.request()

    def by_try(res):
        assert res.try_acquire()
        return
        yield  # a generator, like by_request

    assert held(by_try) == held(by_request)
    assert held(by_try)[0] == 20.0


@pytest.mark.parametrize("cls", [Resource, PriorityResource])
def test_try_acquire_on_busy_resource_changes_nothing(engine, cls):
    res = cls(engine)
    res.request()
    waiter = res.request()  # queued behind the holder
    engine.run(until=3.0)

    def state():
        return (res.in_use, res.queue_length, res.busy_time(),
                engine._seq, engine.pending_events)

    before = state()
    assert res.try_acquire() is False
    assert state() == before
    res.release()
    assert waiter.triggered  # the queued request still gets the unit


def test_priority_using_serves_the_urgent_waiter_first(engine):
    """``PriorityResource.using`` queues at its priority (a plain
    ``Resource.using`` would queue FIFO)."""
    res = PriorityResource(engine)
    order = []

    def user(name, priority, delay):
        yield delay
        yield from res.using(10.0, priority=priority)
        order.append(name)

    engine.process(user("holder", 5, 0.0))
    engine.process(user("late", 5, 1.0))
    engine.process(user("urgent", 0, 2.0))
    engine.run()
    assert order == ["holder", "urgent", "late"]
