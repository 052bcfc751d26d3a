"""sBIU and aBIU unit behaviour not covered by mechanism tests."""

import pytest

import repro
from repro.bus.ops import BusOpType, BusTransaction
from repro.niu.commands import LOCAL_CMDQ_0, CmdCall
from repro.niu.queues import QueueKind


@pytest.fixture
def m2():
    return repro.StarTVoyager(repro.default_config(n_nodes=2))


def _run_gen(m2, gen):
    return m2.engine.run_until_triggered(m2.engine.process(gen), limit=1e9)


# -- sBIU -----------------------------------------------------------------------

def test_sbiu_ssram_roundtrip(m2):
    sbiu = m2.node(0).niu.sbiu
    off = m2.node(0).niu.alloc_ssram(64)

    def body():
        yield from sbiu.write_ssram(off, b"sp-visible")
        return (yield from sbiu.read_ssram(off, 10))

    assert _run_gen(m2, body()) == b"sp-visible"


def test_sbiu_access_is_timed(m2):
    sbiu = m2.node(0).niu.sbiu
    off = m2.node(0).niu.alloc_ssram(64)

    def body():
        t0 = m2.engine.now
        yield from sbiu.write_ssram(off, bytes(8))
        return m2.engine.now - t0

    assert _run_gen(m2, body()) > 0


def test_sbiu_immediate_interface(m2):
    sbiu = m2.node(0).niu.sbiu
    ctrl = m2.node(0).ctrl

    def body():
        return (yield from sbiu.immediate(
            lambda: ctrl.read_pointer(QueueKind.TX, 0, "producer")))

    assert _run_gen(m2, body()) == 0


def test_sbiu_command_enqueue_ordered(m2):
    sbiu = m2.node(0).niu.sbiu
    order = []

    def body():
        yield from sbiu.enqueue_command(LOCAL_CMDQ_0,
                                        CmdCall(lambda: order.append(1)))
        yield from sbiu.enqueue_command(LOCAL_CMDQ_0,
                                        CmdCall(lambda: order.append(2)))

    _run_gen(m2, body())
    m2.run(until=m2.now + 10_000)
    assert order == [1, 2]


def test_sbiu_event_fifo(m2):
    sbiu = m2.node(0).niu.sbiu
    seen = []
    m2.node(0).sp.register("ev", _collector(seen))
    for i in range(5):
        sbiu.post_event(("ev", i))
    m2.run(until=m2.now + 50_000)
    assert seen == [("ev", i) for i in range(5)]


def _collector(seen):
    def handler(sp, event):
        seen.append(event)
        yield sp.compute(1)
    return handler


# -- aBIU -------------------------------------------------------------------------

def test_abiu_master_issue_sets_master_name(m2):
    abiu = m2.node(0).niu.abiu

    def body():
        txn = BusTransaction(BusOpType.WRITE, 0x100, 8, b"frm-abiu",
                             master="whatever")
        yield from abiu.issue(txn)
        return txn.master

    assert _run_gen(m2, body()) == "niu0"
    assert m2.node(0).dram.peek(0x100, 8) == b"frm-abiu"


def test_abiu_own_transactions_not_observed(m2):
    abiu = m2.node(0).niu.abiu
    before = abiu.observed

    def body():
        # a NIU-mastered op over the NUMA window would deadlock if the
        # aBIU snooped its own grants; the master check prevents that
        txn = BusTransaction(BusOpType.WRITE, 0x200, 8, bytes(8),
                             master="x")
        yield from abiu.issue(txn)

    _run_gen(m2, body())
    assert abiu.observed == before


def test_abiu_observes_ap_traffic_to_windows(m2):
    abiu = m2.node(0).niu.abiu
    before = abiu.observed

    def prog(api):
        from repro.mem.address import ASRAM_BASE
        yield from api.store(ASRAM_BASE + 0x8000, bytes(8))

    m2.run_until(m2.spawn(0, prog), limit=1e8)
    assert abiu.observed == before + 1


def test_abiu_ignores_plain_dram_traffic(m2):
    abiu = m2.node(0).niu.abiu
    before = abiu.observed

    def prog(api):
        yield from api.store(0x3000, bytes(8))

    m2.run_until(m2.spawn(0, prog), limit=1e8)
    assert abiu.observed == before  # no handler covers user DRAM


def test_serve_without_claim_is_error(m2):
    from repro.common.errors import SimulationError
    abiu = m2.node(0).niu.abiu
    txn = BusTransaction(BusOpType.READ, 0x0, 8, master="ap0")

    def body():
        yield from abiu.serve(txn)

    with pytest.raises(SimulationError):
        _run_gen(m2, body())


def test_abiu_install_over_an_already_accessed_address(m2):
    # an S-COMA address: the aBIU finds its handler by bisecting once,
    # then by its last hit; an install must drop both
    from repro.bus.ops import OP_READ_LINE
    from repro.bus.snoop import SNOOP_OK
    from repro.niu.abiu import BusHandler

    node = m2.node(0)
    abiu = node.niu.abiu
    addr = node.scoma_base + 64
    scoma = abiu.handler_for(addr)
    assert scoma is node.niu.scoma_handler
    assert abiu.handler_for(addr + 32) is scoma  # the last hit

    class Quiet(BusHandler):
        handler_name = "quiet"

        def decide(self, txn):
            return SNOOP_OK

    region = next(r for r, h in abiu._handlers if h is scoma)
    quiet = Quiet()
    assert abiu.install(region, quiet) is scoma
    assert abiu.handler_for(addr) is quiet
    txn = BusTransaction(OP_READ_LINE, addr, 32, master="ap0")
    assert abiu.snoop(txn) is SNOOP_OK
