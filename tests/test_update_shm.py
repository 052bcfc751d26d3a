"""The diff-ing update-based shared memory extension (§5)."""

import pytest

import repro
from repro.mp.basic import BasicPort
from repro.niu.diffunit import DiffUnit
from repro.shm.update import UpdateRegion

BASE = 0x50000
SIZE = 4096


# -- the diff unit in isolation ------------------------------------------------

def _unit(engine):
    return DiffUnit(engine, BASE, SIZE, line_bytes=32)


def _run(engine, gen):
    return engine.run_until_triggered(engine.process(gen))


def test_diff_against_zero_twin(engine):
    unit = _unit(engine)

    def body():
        data = b"\x01" * 8 + bytes(24)
        return (yield from unit.diff(0, data))

    runs = _run(engine, body())
    assert runs == [(0, b"\x01" * 8)]


def test_diff_no_change_empty(engine):
    unit = _unit(engine)

    def body():
        yield from unit.diff(0, bytes(32))
        return (yield from unit.diff(0, bytes(32)))

    assert _run(engine, body()) == []


def test_diff_merges_adjacent_words(engine):
    unit = _unit(engine)

    def body():
        data = bytes(8) + b"\x02" * 16 + bytes(8)
        return (yield from unit.diff(0, data))

    runs = _run(engine, body())
    assert runs == [(8, b"\x02" * 16)]


def test_diff_splits_separate_runs(engine):
    unit = _unit(engine)

    def body():
        data = b"\x03" * 8 + bytes(16) + b"\x04" * 8
        return (yield from unit.diff(0, data))

    runs = _run(engine, body())
    assert runs == [(0, b"\x03" * 8), (24, b"\x04" * 8)]


def test_diff_updates_twin(engine):
    unit = _unit(engine)

    def body():
        yield from unit.diff(0, b"\x05" * 32)
        # second diff against the updated twin: only the new change shows
        return (yield from unit.diff(0, b"\x06" * 8 + b"\x05" * 24))

    runs = _run(engine, body())
    assert runs == [(0, b"\x06" * 8)]
    assert unit.twin_of(0) == b"\x06" * 8 + b"\x05" * 24


def test_diff_timing(engine):
    unit = _unit(engine)

    def body():
        yield from unit.diff(0, bytes(32))

    _run(engine, body())
    assert engine.now == pytest.approx(4 * unit.compare_ns_per_beat)


def test_dirty_tracking():
    from repro.sim.engine import Engine
    unit = _unit(Engine())
    unit.mark_dirty(BASE + 5)
    unit.mark_dirty(BASE + 40)
    unit.mark_dirty(BASE + 33)  # same line as 40
    assert unit.take_dirty() == [0, 1]
    assert unit.take_dirty() == []


def test_bad_geometry(engine):
    from repro.common.errors import AddressError
    with pytest.raises(AddressError):
        DiffUnit(engine, BASE + 1, SIZE, 32)
    unit = _unit(engine)
    with pytest.raises(AddressError):
        unit.mark_dirty(BASE - 1)
    with pytest.raises(AddressError):
        unit.line_addr(unit.n_lines)


# -- the full mechanism ----------------------------------------------------------

@pytest.fixture
def rig():
    machine = repro.StarTVoyager(repro.default_config(n_nodes=3))
    region = UpdateRegion(machine, base=BASE, size=SIZE)
    ports = [BasicPort(machine.node(n), 0, 0) for n in range(3)]
    return machine, region, ports


def _settle(machine):
    machine.run(until=machine.now + 500_000)


def test_release_propagates_to_all_peers(rig):
    machine, region, ports = rig

    def writer(api):
        yield from api.store(region.addr(0), b"released")
        yield from region.release(api, ports[0], notify_queue=0)

    machine.run_until(machine.spawn(0, writer), limit=1e9)
    _settle(machine)
    for n in range(3):
        assert region.peek(n, 0, 8) == b"released"


def test_no_release_no_propagation(rig):
    machine, region, ports = rig

    def writer(api):
        yield from api.store(region.addr(0), b"unshared")

    machine.run_until(machine.spawn(0, writer), limit=1e9)
    _settle(machine)
    assert region.peek(0, 0, 8) == b"unshared"  # local only
    assert region.peek(1, 0, 8) == bytes(8)


def test_multiple_writers_merge(rig):
    """The defining property: disjoint writes to ONE line from two nodes
    merge everywhere instead of one overwriting the other."""
    machine, region, ports = rig

    def w0(api):
        yield from api.store(region.addr(0), b"N0N0N0N0")
        yield from region.release(api, ports[0], notify_queue=0)

    def w1(api):
        yield from api.store(region.addr(16), b"N1N1N1N1")
        yield from region.release(api, ports[1], notify_queue=0)

    machine.run_all([machine.spawn(0, w0), machine.spawn(1, w1)], limit=1e9)
    _settle(machine)
    expected = b"N0N0N0N0" + bytes(8) + b"N1N1N1N1" + bytes(8)
    for n in range(3):
        assert region.peek(n, 0, 32) == expected


def test_only_changed_words_travel(rig):
    machine, region, ports = rig

    def writer(api):
        yield from api.store(region.addr(0), b"x" * 8)  # 8 of 32 bytes
        yield from region.release(api, ports[0], notify_queue=0)

    machine.run_until(machine.spawn(0, writer), limit=1e9)
    _settle(machine)
    unit = region.units[0]
    assert unit.bytes_saved >= 24  # the untouched 24 bytes did not travel


def test_repeat_release_sends_nothing_new(rig):
    machine, region, ports = rig

    def writer(api):
        yield from api.store(region.addr(64), b"once....")
        yield from region.release(api, ports[0], notify_queue=0)
        sent_before = machine.node(0).ctrl.stats.counter(
            "ctrl0.msgs_sent").value
        yield from region.release(api, ports[0], notify_queue=0)
        return sent_before

    machine.run_until(machine.spawn(0, writer), limit=1e9)
    _settle(machine)
    # second release had no dirty lines: twins unchanged
    assert region.units[0].take_dirty() == []


def test_rewrite_after_release_redetected(rig):
    """The release FLUSH invalidates the L2 copy, so the next write
    re-acquires ownership and is tracked again."""
    machine, region, ports = rig

    def writer(api):
        yield from api.store(region.addr(0), b"first...")
        yield from region.release(api, ports[0], notify_queue=0)
        yield from api.store(region.addr(0), b"second..")
        yield from region.release(api, ports[0], notify_queue=0)

    machine.run_until(machine.spawn(0, writer), limit=1e9)
    _settle(machine)
    for n in range(3):
        assert region.peek(n, 0, 8) == b"second.."


def test_needs_two_peers():
    machine = repro.StarTVoyager(repro.default_config(n_nodes=2))
    from repro.common.errors import ProgramError
    with pytest.raises(ProgramError):
        UpdateRegion(machine, base=BASE, size=SIZE, nodes=[0])


def test_second_region_on_one_sp_rejected(rig):
    """An sP holds one region: a second install would take over its diff
    unit, and releasing the first would propagate nothing.  It is
    refused, and the first still propagates."""
    from repro.common.errors import ConfigError

    machine, region, ports = rig
    with pytest.raises(ConfigError, match="already has an update region"):
        UpdateRegion(machine, base=BASE + 2 * SIZE, size=SIZE)

    def writer(api):
        yield from api.store(region.addr(0), b"released")
        yield from region.release(api, ports[0], notify_queue=0)

    machine.run_until(machine.spawn(0, writer), limit=1e9)
    _settle(machine)
    for n in range(3):
        assert region.peek(n, 0, 8) == b"released"
