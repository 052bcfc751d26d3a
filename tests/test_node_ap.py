"""The application processor: access routing, decomposition, occupancy."""

import pytest

import repro
from repro.mem.address import ASRAM_BASE


@pytest.fixture
def m2():
    return repro.StarTVoyager(repro.default_config(n_nodes=2))


def test_cached_roundtrip(m2):
    def prog(api):
        yield from api.store(0x1000, b"cached-path-data")
        return (yield from api.load(0x1000, 16))

    assert m2.run_until(m2.spawn(0, prog), limit=1e7) == b"cached-path-data"


def test_cached_access_spans_lines(m2):
    data = bytes(range(100))

    def prog(api):
        yield from api.store(0x1010, data)  # straddles several lines
        return (yield from api.load(0x1010, 100))

    assert m2.run_until(m2.spawn(0, prog), limit=1e7) == data


def test_uncached_region_split_at_8(m2):
    # the pointer window is uncached: accesses of > 8 bytes would straddle
    # pointer slots, but 4-byte accesses work anywhere
    from repro.niu.niu import PTR_WINDOW_OFF
    from repro.mem.address import NIU_CTL_BASE

    def prog(api):
        return (yield from api.load(NIU_CTL_BASE + PTR_WINDOW_OFF, 4))

    assert len(m2.run_until(m2.spawn(0, prog), limit=1e7)) == 4


def test_burst_region_mixes_bursts_and_singles(m2):
    niu = m2.node(0).niu
    off = niu.alloc_asram(128)

    def prog(api):
        # 3 unaligned + 64 burst (2 lines) + 5 tail
        yield from api.store(ASRAM_BASE + off + 29, bytes(72))

    m2.run_until(m2.spawn(0, prog), limit=1e7)
    assert niu.asram.peek(off + 29, 72) == bytes(72)


def test_unmapped_address_fails_program(m2):
    def prog(api):
        yield from api.load(0x5500_0000, 4)

    from repro.common.errors import SimulationError
    with pytest.raises(SimulationError):
        m2.run_until(m2.spawn(0, prog), limit=1e7)


def test_zero_size_rejected(m2):
    def prog(api):
        yield from api.load(0x0, 0)

    from repro.common.errors import SimulationError
    with pytest.raises(SimulationError):
        m2.run_until(m2.spawn(0, prog), limit=1e7)


def test_compute_time(m2):
    def prog(api):
        t0 = api.now
        yield from api.compute(166)
        return api.now - t0

    assert m2.run_until(m2.spawn(0, prog), limit=1e7) == \
        pytest.approx(1000.0, rel=1e-3)


def test_occupancy_tracking(m2):
    ap = m2.node(0).ap

    def prog(api):
        yield from api.compute(100)
        yield from api.sleep(10_000.0)  # idle: not occupancy

    m2.run_until(m2.spawn(0, prog), limit=1e8)
    busy = ap.busy.current()
    assert busy == pytest.approx(m2.config.ap.insn_ns(100), rel=0.01)


def test_wait_does_not_accrue_occupancy(m2):
    ap = m2.node(0).ap

    def prog(api):
        yield from api.wait(m2.engine.timeout(50_000.0))

    m2.run_until(m2.spawn(0, prog), limit=1e8)
    assert ap.busy.current() < 1.0


def test_u32_helpers(m2):
    def prog(api):
        yield from api.store_u32(0x2000, 0xCAFEBABE)
        return (yield from api.load_u32(0x2000))

    assert m2.run_until(m2.spawn(0, prog), limit=1e7) == 0xCAFEBABE


def test_program_return_value_and_counters(m2):
    ap = m2.node(0).ap

    def prog(api, x):
        yield from api.load(0x0, 8)
        yield from api.store(0x8, b"12345678")
        return x * 2

    assert m2.run_until(m2.spawn(0, prog, 21), limit=1e7) == 42
    assert ap.loads == 1 and ap.stores == 1


@pytest.mark.parametrize("access", ["load", "store"])
def test_zero_length_access_fails_at_first_resume(m2, access):
    from repro.common.errors import ProgramError, SimulationError
    from repro.node import ApApi

    api = ApApi(m2.node(0).ap)
    # load/store hand back the aP's generator: building it checks nothing
    gen = api.load(0x1000, 0) if access == "load" else api.store(0x1000, b"")
    with pytest.raises(ProgramError, match="access size must be positive"):
        next(gen)

    def prog(api):
        if access == "load":
            yield from api.load(0x1000, 0)
        else:
            yield from api.store(0x1000, b"")

    proc = m2.spawn(0, prog)
    with pytest.raises(SimulationError):
        m2.run_until(proc, limit=1e6)
    assert isinstance(proc.exception, ProgramError)
    assert m2.now == 0.0
