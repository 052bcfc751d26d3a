"""aBIU handler state machines and the BIU frameworks."""

import pytest

import repro
from repro.bus.snoop import SnoopResult
from repro.common.errors import SimulationError
from repro.mem.address import AccessMode, NIU_CTL_BASE, Region
from repro.niu.abiu import BusHandler
from repro.niu.handlers import pointer_offset
from repro.niu.niu import EXPRESS_RX_LOGICAL, PTR_WINDOW_OFF, vdst_for
from repro.niu.queues import QueueKind


@pytest.fixture
def m2():
    return repro.StarTVoyager(repro.default_config(n_nodes=2))


# -- pointer window -----------------------------------------------------------

def test_pointer_offsets_distinct():
    offsets = set()
    for kind in (QueueKind.TX, QueueKind.RX):
        for idx in range(16):
            for which in ("producer", "consumer"):
                offsets.add(pointer_offset(kind, idx, which))
    assert len(offsets) == 64


def test_pointer_read_write_roundtrip(m2):
    base = NIU_CTL_BASE + PTR_WINDOW_OFF

    def prog(api):
        # producer starts at zero
        p0 = yield from api.load_u32(
            base + pointer_offset(QueueKind.TX, 0, "producer"))
        # compose nothing; just bump the producer illegally? No -- bump by
        # zero entries is legal (same value)
        yield from api.store_u32(
            base + pointer_offset(QueueKind.TX, 0, "producer"), 0)
        return p0

    assert m2.run_until(m2.spawn(0, prog), limit=1e7) == 0


def test_pointer_readonly_slots(m2):
    base = NIU_CTL_BASE + PTR_WINDOW_OFF

    def prog(api):
        yield from api.store_u32(
            base + pointer_offset(QueueKind.TX, 0, "consumer"), 1)

    with pytest.raises(SimulationError):
        m2.run_until(m2.spawn(0, prog), limit=1e7)


def test_pointer_shadow_memo_serves_reads_only(m2):
    addr = NIU_CTL_BASE + PTR_WINDOW_OFF + pointer_offset(
        QueueKind.TX, 0, "consumer")
    out = []

    def prog(api):
        first = yield from api.load(addr, 4)  # remembers the shadow
        again = yield from api.load(addr, 4)
        narrow = yield from api.load(addr, 2)
        wide = yield from api.load(addr, 8)
        out.append((first, again, narrow, wide))
        # a remembered register still refuses a write to a read-only slot
        yield from api.store_u32(addr, 1)

    proc = m2.spawn(0, prog)
    with pytest.raises(SimulationError):
        m2.run_until(proc, limit=1e7)
    assert out == [(bytes(4), bytes(4), bytes(2), bytes(8))]
    assert "read-only" in str(proc.exception)


def test_pointer_write_to_disabled_queue_dropped(m2):
    ctrl = m2.node(0).ctrl
    ctrl.tx_queues[0].shutdown()
    base = NIU_CTL_BASE + PTR_WINDOW_OFF

    def prog(api):
        yield from api.store_u32(
            base + pointer_offset(QueueKind.TX, 0, "producer"), 1)
        return "survived"

    # hardware silently drops the write; the program continues
    assert m2.run_until(m2.spawn(0, prog), limit=1e7) == "survived"
    assert ctrl.tx_queues[0].producer == 0


# -- SRAM window -----------------------------------------------------------------

def test_sram_window_burst_and_single(m2):
    from repro.mem.address import ASRAM_BASE
    niu = m2.node(0).niu
    off = niu.alloc_asram(128)

    def prog(api):
        yield from api.store(ASRAM_BASE + off, b"A" * 64)  # bursts
        yield from api.store(ASRAM_BASE + off + 64, b"tail")  # singles
        return (yield from api.load(ASRAM_BASE + off, 68))

    data = m2.run_until(m2.spawn(0, prog), limit=1e7)
    assert data == b"A" * 64 + b"tail"
    assert niu.asram.peek(off, 68) == data


# -- express handlers -------------------------------------------------------------

def test_express_roundtrip_remote(m2):
    from repro.mp.express import ExpressPort
    e0 = ExpressPort(m2.node(0))
    e1 = ExpressPort(m2.node(1))

    def sender(api):
        yield from e0.send(api, vdst_for(1, EXPRESS_RX_LOGICAL), b"\x99wxyz")

    def receiver(api):
        return (yield from e1.recv_blocking(api))

    m2.spawn(0, sender)
    src, payload = m2.run_until(m2.spawn(1, receiver), limit=1e8)
    assert src == 0
    assert payload == b"\x99wxyz"  # first byte rode in the address


def test_express_empty_returns_none(m2):
    from repro.mp.express import ExpressPort
    e = ExpressPort(m2.node(0))

    def prog(api):
        return (yield from e.recv(api))

    assert m2.run_until(m2.spawn(0, prog), limit=1e7) is None


def test_express_fifo_order(m2):
    from repro.mp.express import ExpressPort
    e0 = ExpressPort(m2.node(0))
    e1 = ExpressPort(m2.node(1))

    def sender(api):
        for i in range(10):
            yield from e0.send(api, vdst_for(1, EXPRESS_RX_LOGICAL),
                               bytes([i, i, 0, 0, 0]))

    def receiver(api):
        out = []
        for _ in range(10):
            src, payload = yield from e1.recv_blocking(api)
            out.append(payload[0])
        return out

    m2.spawn(0, sender)
    assert m2.run_until(m2.spawn(1, receiver), limit=1e8) == list(range(10))


def test_express_payload_cap(m2):
    from repro.mp.express import ExpressPort
    e = ExpressPort(m2.node(0))

    def prog(api):
        yield from e.send(api, 0, b"toolong")

    with pytest.raises(SimulationError):
        m2.run_until(m2.spawn(0, prog), limit=1e7)


# -- sysreg window ---------------------------------------------------------------

def test_sysreg_window_write(m2):
    from repro.niu.niu import SYSREG_OFF
    ctrl = m2.node(0).ctrl

    def prog(api):
        # offset q*8 maps tx_priority.q
        yield from api.store_u32(NIU_CTL_BASE + SYSREG_OFF + 3 * 8, 6)
        return (yield from api.load_u32(NIU_CTL_BASE + SYSREG_OFF + 3 * 8))

    assert m2.run_until(m2.spawn(0, prog), limit=1e7) == 6
    assert ctrl.tx_queues[3].priority == 6


# -- handler installation / reconfiguration ------------------------------------------

class CountingHandler(BusHandler):
    handler_name = "counting"

    def __init__(self, engine):
        self.engine = engine
        self.count = 0

    def decide(self, txn):
        return SnoopResult.CLAIM

    def serve(self, txn):
        self.count += 1
        yield self.engine.timeout(1.0)
        if txn.op.is_read:
            return b"\x00" * txn.size
        return None


def test_install_and_replace_handler(m2):
    node = m2.node(0)
    abiu = node.niu.abiu
    region = node.address_map.carve("custom", 0x50000, 0x1000,
                                    AccessMode.UNCACHED)
    h1 = CountingHandler(m2.engine)
    assert abiu.install(region, h1) is None

    def prog(api):
        yield from api.load(0x50000, 8)

    m2.run_until(m2.spawn(0, prog), limit=1e7)
    assert h1.count == 1
    # replacing over the same region returns the old handler
    h2 = CountingHandler(m2.engine)
    assert abiu.install(region, h2) is h1
    m2.run_until(m2.spawn(0, prog), limit=1e7)
    assert h2.count == 1 and h1.count == 1


def test_install_overlap_rejected(m2):
    node = m2.node(0)
    region = Region("overlapping", NIU_CTL_BASE + PTR_WINDOW_OFF + 8, 16,
                    AccessMode.UNCACHED)
    with pytest.raises(SimulationError):
        node.niu.abiu.install(region, CountingHandler(m2.engine))


def test_handler_for_lookup(m2):
    abiu = m2.node(0).niu.abiu
    assert abiu.handler_for(NIU_CTL_BASE + PTR_WINDOW_OFF) is not None
    assert abiu.handler_for(0x12345) is None  # plain DRAM: no handler
