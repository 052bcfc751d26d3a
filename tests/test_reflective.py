"""The reflective-memory extension: a new mechanism added at runtime."""

import pytest

import repro
from repro.firmware.reflective import install_reflective

BASE = 0x40000
BYTES = 4096


@pytest.fixture
def m3():
    m = repro.StarTVoyager(repro.default_config(n_nodes=3))
    handlers = [install_reflective(m.node(n), BASE, BYTES, [0, 1, 2])
                for n in range(3)]
    return m, handlers


def _settle(m):
    m.run(until=m.now + 200_000)


def test_store_reflected_everywhere(m3):
    m, handlers = m3

    def writer(api):
        yield from api.store(BASE + 0x10, b"mirrored")

    m.run_until(m.spawn(0, writer), limit=1e8)
    _settle(m)
    for n in range(3):
        assert m.node(n).dram.peek(BASE + 0x10, 8) == b"mirrored"
    assert handlers[0].captured == 1


def test_local_copy_applied_immediately(m3):
    m, _ = m3

    def writer(api):
        yield from api.store(BASE, b"local!!!")
        return (yield from api.load(BASE, 8))

    assert m.run_until(m.spawn(0, writer), limit=1e8) == b"local!!!"


def test_loads_not_reflected(m3):
    m, handlers = m3

    def reader(api):
        return (yield from api.load(BASE + 0x20, 8))

    m.run_until(m.spawn(1, reader), limit=1e8)
    assert handlers[1].captured == 0


def test_reflection_from_any_node(m3):
    m, _ = m3

    def writer(api):
        yield from api.store(BASE + 0x100, b"from-2!!")

    m.run_until(m.spawn(2, writer), limit=1e8)
    _settle(m)
    assert m.node(0).dram.peek(BASE + 0x100, 8) == b"from-2!!"
    assert m.node(1).dram.peek(BASE + 0x100, 8) == b"from-2!!"


def test_last_writer_wins_locally(m3):
    m, _ = m3

    def writer(api):
        yield from api.store(BASE + 0x200, b"AAAA")
        yield from api.store(BASE + 0x200, b"BBBB")

    m.run_until(m.spawn(0, writer), limit=1e8)
    _settle(m)
    for n in range(3):
        assert m.node(n).dram.peek(BASE + 0x200, 4) == b"BBBB"


def test_window_outside_user_dram_rejected():
    m = repro.StarTVoyager(repro.default_config(n_nodes=2))
    from repro.common.errors import SimulationError
    with pytest.raises(SimulationError):
        install_reflective(m.node(0), m.node(0).scoma_base, 4096, [0, 1])


def test_install_over_accessed_address_reaches_new_handler():
    # the aBIU memoizes the handler per address; installing a handler is
    # reprogramming the FPGA and must drop what it learned before
    m = repro.StarTVoyager(repro.default_config(n_nodes=2))
    abiu = m.node(0).niu.abiu

    def reader(api):
        return (yield from api.load(BASE, 8))

    m.run_until(m.spawn(0, reader), limit=1e8)
    assert abiu.handler_for(BASE) is None  # seen as plain DRAM
    handlers = [install_reflective(m.node(n), BASE, BYTES, [0, 1])
                for n in range(2)]

    def writer(api):
        yield from api.store(BASE, b"reflect!")

    m.run_until(m.spawn(0, writer), limit=1e8)
    _settle(m)
    assert handlers[0].captured == 1
    assert m.node(1).dram.peek(BASE, 8) == b"reflect!"


def test_second_window_on_one_sp_rejected():
    """An sP holds one window: a second install would overwrite the
    first's base, so a store to the first would land in the second's
    range on the peer.  It is refused, and the first keeps working."""
    from repro.common.errors import ConfigError

    m = repro.StarTVoyager(repro.default_config(n_nodes=2))
    for n in range(2):
        install_reflective(m.node(n), BASE, BYTES, [0, 1])
    with pytest.raises(ConfigError, match="already has a reflective"):
        install_reflective(m.node(0), BASE + 0x4000, BYTES, [0, 1])

    def writer(api):
        yield from api.store(BASE + 0x10, b"first!!!")

    m.run_until(m.spawn(0, writer), limit=1e8)
    _settle(m)
    assert m.node(1).dram.peek(BASE + 0x10, 8) == b"first!!!"
    assert m.node(1).dram.peek(BASE + 0x4010, 8) == bytes(8)
