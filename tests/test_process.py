"""Processes: fork/join, return values, interrupts, misuse."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.process import Interrupt
from repro.sim.resource import Resource
from repro.sim.store import Store


def test_return_value_via_join(engine):
    def child():
        yield engine.timeout(5.0)
        return "result"

    def parent():
        value = yield engine.process(child())
        return value

    p = engine.process(parent())
    assert engine.run_until_triggered(p) == "result"


def test_fork_join_many(engine):
    def child(n):
        yield engine.timeout(float(n))
        return n * n

    def parent():
        children = [engine.process(child(n)) for n in (3, 1, 2)]
        values = yield engine.all_of(children)
        return values

    p = engine.process(parent())
    assert engine.run_until_triggered(p) == [9, 1, 4]


def test_is_alive(engine):
    def body():
        yield engine.timeout(10.0)

    p = engine.process(body())
    assert p.is_alive
    engine.run()
    assert not p.is_alive


def test_interrupt_raises_inside(engine):
    caught = []

    def body():
        try:
            yield engine.timeout(1000.0)
        except Interrupt as exc:
            caught.append(exc.cause)

    p = engine.process(body())
    engine.run(until=10.0)
    p.interrupt("stop now")
    engine.run()
    assert caught == ["stop now"]


def test_interrupt_finished_process_rejected(engine):
    def body():
        yield engine.timeout(1.0)

    p = engine.process(body())
    engine.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_non_generator_rejected(engine):
    with pytest.raises(SimulationError, match="generator"):
        engine.process(lambda: None)  # type: ignore[arg-type]


def test_bad_yield_fails_process(engine):
    def body():
        yield 42  # not an Event

    engine.process(body())
    with pytest.raises(SimulationError):
        engine.run()


def test_child_failure_propagates_to_parent(engine):
    def child():
        yield engine.timeout(1.0)
        raise ValueError("inner")

    def parent():
        try:
            yield engine.process(child())
        except ValueError:
            return "handled"
        return "not handled"

    p = engine.process(parent())
    assert engine.run_until_triggered(p) == "handled"


def test_long_run_of_triggered_yields_does_not_recurse(engine):
    # every get on a pre-filled store is already triggered when yielded;
    # the process must run past them in one frame, scheduling nothing
    store = Store(engine, name="prefilled")
    for i in range(3000):
        store.try_put(i)

    def drain():
        total = 0
        for _ in range(3000):
            total += yield store.get()
        return total

    p = engine.process(drain())
    engine.run()
    assert p.value == sum(range(3000))
    # the first step is the only item: no get scheduled anything
    assert engine.events_executed == 1 and engine._seq == 1


def test_uncontended_requests_in_a_loop_do_not_recurse(engine):
    res = Resource(engine, name="solo")

    def loop():
        for _ in range(500):
            yield res.request()
            res.release()
        return "done"

    p = engine.process(loop())
    engine.run()
    assert p.value == "done"
    assert engine.events_executed == 1 and res.in_use == 0
