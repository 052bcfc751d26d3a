"""Statistics: counters, streaming accumulators, busy trackers."""

import math

import pytest

from repro.common.errors import SimulationError
from repro.sim.stats import Accumulator, BusyTracker, Counter, StatsRegistry


def test_counter_increments():
    c = Counter("x")
    c.incr()
    c.incr(5)
    assert c.value == 6
    assert int(c) == 6


def test_counter_rejects_decrease():
    with pytest.raises(SimulationError):
        Counter("x").incr(-1)


def test_accumulator_mean_min_max():
    a = Accumulator("lat")
    for x in (10.0, 20.0, 30.0):
        a.add(x)
    assert a.mean == pytest.approx(20.0)
    assert a.min == 10.0
    assert a.max == 30.0
    assert a.total == 60.0
    assert a.n == 3


def test_accumulator_welford_matches_direct():
    import random

    rng = random.Random(7)
    xs = [rng.uniform(0, 100) for _ in range(500)]
    a = Accumulator("v")
    for x in xs:
        a.add(x)
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert a.mean == pytest.approx(mean, rel=1e-9)
    assert a.variance == pytest.approx(var, rel=1e-6)
    assert a.stddev == pytest.approx(math.sqrt(var), rel=1e-6)


def test_accumulator_empty():
    a = Accumulator("empty")
    assert a.mean == 0.0
    assert a.variance == 0.0


def test_busy_tracker_simple(engine):
    b = BusyTracker(engine, "ap")

    def worker():
        b.begin()
        yield engine.timeout(30.0)
        b.end()
        yield engine.timeout(70.0)

    p = engine.process(worker())
    engine.run_until_triggered(p)
    assert b.busy_ns == pytest.approx(30.0)
    assert b.occupancy() == pytest.approx(0.3)


def test_busy_tracker_nesting(engine):
    b = BusyTracker(engine, "sp")

    def worker():
        b.begin()
        yield engine.timeout(10.0)
        b.begin()  # nested
        yield engine.timeout(10.0)
        b.end()
        yield engine.timeout(10.0)
        b.end()

    p = engine.process(worker())
    engine.run_until_triggered(p)
    assert b.busy_ns == pytest.approx(30.0)  # no double counting


def test_busy_tracker_open_section_counts(engine):
    b = BusyTracker(engine, "x")

    def worker():
        b.begin()
        yield engine.timeout(40.0)

    engine.process(worker())
    engine.run()
    assert b.current() == pytest.approx(40.0)


def test_busy_end_without_begin(engine):
    with pytest.raises(SimulationError):
        BusyTracker(engine, "x").end()


def test_registry_reuses_and_reports(engine):
    reg = StatsRegistry(engine)
    reg.counter("a.b").incr(3)
    assert reg.counter("a.b").value == 3  # same instance
    reg.accumulator("lat").add(5.0)
    assert reg.merged_accumulators()["lat"].mean == 5.0
    assert reg.busy_tracker("cpu") is reg.busy_tracker("cpu")
    assert set(reg.names()) == {"a.b", "lat", "cpu"}
