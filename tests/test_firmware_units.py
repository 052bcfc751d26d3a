"""Firmware internals: DMA paging, BT2 dispatcher, arm handler, protocol
packing."""

import pytest

import repro
from repro.common.errors import FirmwareError
from repro.common.wire import (
    BT2_CHUNK,
    BT2_DONE,
    BT45_ARM,
    DMA_REQ,
    MSG_BT45_ARM,
    MSG_KV_REQ,
    MSG_PS_PUSH,
    MSG_SCOMA_EVICT_REQ,
    MSG_SCOMA_RREQ,
    MSG_SCOMA_WREQ,
    NUMA_RREP,
    NUMA_RREQ,
    NUMA_WREQ,
    SCOMA_INV,
    SCOMA_INVACK,
    SCOMA_REQ,
    SCOMA_WBDATA,
    SCOMA_WBREQ,
)
from repro.firmware.base import register_msg_handler
from repro.firmware.blockxfer import handle_arm
from repro.firmware.dma import split_pages
from repro.firmware.scoma import handle_evict_request
from repro.niu.clssram import CLS_PENDING


# -- split_pages ---------------------------------------------------------------

def test_split_single_piece():
    assert split_pages(0x1000, 100, 4096) == [(0x1000, 100)]


def test_split_at_boundary():
    assert split_pages(0x0, 8192, 4096) == [(0x0, 4096), (0x1000, 4096)]


def test_split_unaligned_start():
    pieces = split_pages(0xF00, 8192, 4096)
    assert pieces[0] == (0xF00, 4096 - 0xF00)
    assert sum(n for _a, n in pieces) == 8192
    # every piece stays inside one page
    for addr, n in pieces:
        assert addr // 4096 == (addr + n - 1) // 4096


def test_split_tiny_pieces_pipeline():
    pieces = split_pages(0x0, 4096, 1024)
    assert len(pieces) == 4
    assert all(n == 1024 for _a, n in pieces)


# -- protocol packing ------------------------------------------------------------

def test_dma_req_roundtrip():
    p = DMA_REQ.pack(0x123456, 3, 0xABCDEF, 70000, 7, 4)
    assert DMA_REQ.unpack(p) == (0x123456, 3, 0xABCDEF, 70000, 7, 4)
    assert len(p) <= 88


def test_bt2_chunk_roundtrip():
    p = BT2_CHUNK.pack(0xDEAD00)
    addr, data = BT2_CHUNK.unpack(p + b"payload")
    assert addr == 0xDEAD00
    assert data == b"payload"


def test_bt2_done_roundtrip():
    p = BT2_DONE.pack(7, 123456)
    assert BT2_DONE.unpack(p) == (7, 123456)


def test_numa_packing_roundtrips():
    assert NUMA_RREQ.unpack(NUMA_RREQ.pack(8, 0x42)) == (8, 0x42)
    assert NUMA_RREP.unpack(NUMA_RREP.pack(0x42, tail=b"abc")) == \
        (0x42, b"abc")
    assert NUMA_WREQ.unpack(NUMA_WREQ.pack(0x42, tail=b"xyz")) == \
        (0x42, b"xyz")


def test_scoma_packing_roundtrips():
    # the requester is the rx header's source, not a field
    assert SCOMA_REQ.unpack(SCOMA_REQ.pack(MSG_SCOMA_WREQ, 0x40)) == \
        (MSG_SCOMA_WREQ, 0x40)
    assert SCOMA_REQ.unpack(SCOMA_REQ.pack(MSG_SCOMA_RREQ, 0x40)) == \
        (MSG_SCOMA_RREQ, 0x40)
    assert SCOMA_INV.unpack(SCOMA_INV.pack(0x80)) == (0x80,)
    assert SCOMA_INVACK.unpack(SCOMA_INVACK.pack(0x80)) == (0x80,)
    assert SCOMA_WBREQ.unpack(SCOMA_WBREQ.pack(True, 0x80)) == (True, 0x80)
    line = bytes(range(32))
    assert SCOMA_WBDATA.unpack(SCOMA_WBDATA.pack(0x80, tail=line)) == \
        (0x80, line)


def test_wrong_type_rejected():
    with pytest.raises(FirmwareError):
        DMA_REQ.unpack(bytes([99]) + bytes(20))
    with pytest.raises(FirmwareError):
        NUMA_RREQ.unpack(bytes([1, 2, 3]))


def test_address_width_guard():
    with pytest.raises(FirmwareError):
        NUMA_RREQ.pack(8, 1 << 48)


def test_arm_roundtrip():
    p = BT45_ARM.pack(5, 0x700000, 16384)
    assert BT45_ARM.unpack(p) == (5, 0x700000, 16384)


# -- arm handler behaviour -----------------------------------------------------------

@pytest.fixture
def m2():
    return repro.StarTVoyager(repro.default_config(n_nodes=2))


def _arm(m2, mode):
    from repro.mp.basic import BasicPort
    from repro.niu.niu import SP_SERVICE_QUEUE, vdst_for

    node = m2.node(1)
    base = node.scoma_base
    port = BasicPort(node, 0, 0)

    def prog(api):
        yield from port.send(api, vdst_for(1, SP_SERVICE_QUEUE),
                             BT45_ARM.pack(mode, base, 256))

    m2.run_until(m2.spawn(1, prog), limit=1e8)
    m2.run(until=m2.now + 200_000)
    return node.niu.cls


@pytest.mark.parametrize("mode", [4, 5])
def test_arm_sets_pending(m2, mode):
    cls = _arm(m2, mode)
    for line in range(8):  # 256 bytes = 8 lines
        assert cls.state(line) == CLS_PENDING
    # untouched lines keep their initial state
    assert cls.state(9) != CLS_PENDING or cls.state(9) == 0


def test_arm_mode5_uses_block_machinery(m2):
    """Mode 5 arms via one CmdSetClsState instead of per-line firmware."""
    sp = m2.node(1).sp
    busy4_machine = repro.StarTVoyager(repro.default_config(n_nodes=2))
    _arm(busy4_machine, 4)
    busy4 = busy4_machine.node(1).sp.busy.busy_ns
    _arm(m2, 5)
    busy5 = sp.busy.busy_ns
    assert busy5 < busy4  # hardware bulk set beats the firmware walk


def test_traffic_firmware_keeps_platform_handlers(m2):
    """The serving applications' type bytes no longer shadow the
    default firmware: with the traffic firmware in the image, the arm
    and the S-COMA evict request still reach their handlers, and an arm
    still sets its lines PENDING."""
    handlers = m2.node(1).sp.state["msg_handlers"]
    assert handlers[MSG_BT45_ARM] is handle_arm
    assert handlers[MSG_SCOMA_EVICT_REQ] is handle_evict_request
    assert handlers[MSG_KV_REQ] is not handle_arm
    assert handlers[MSG_PS_PUSH] is not handle_evict_request
    cls = _arm(m2, 5)
    assert all(cls.state(line) == CLS_PENDING for line in range(8))


def test_rebinding_a_type_byte_raises(m2):
    """Every setup runs once, so any second binding is a clash: the same
    handler again as much as a different one."""
    sp = m2.node(0).sp
    for handler in (handle_arm, handle_evict_request):
        with pytest.raises(FirmwareError, match="already bound"):
            register_msg_handler(sp, MSG_BT45_ARM, handler)
    assert sp.state["msg_handlers"][MSG_BT45_ARM] is handle_arm


def test_image_binds_every_service_once():
    """A fresh machine's sPs already serve sync, traffic, collectives and
    go-back-N; building the libraries on top binds nothing more."""
    from repro.collectives import firmware as coll_fw
    from repro.common.wire import (
        MSG_COLL_DOWN,
        MSG_COLL_REQ,
        MSG_COLL_UP,
        MSG_REL_ACK,
        MSG_REL_DATA,
        MSG_SYNC_CBAR,
        MSG_SYNC_INJECT,
        MSG_SYNC_REQ,
        MSG_USVC_REP,
        MSG_USVC_REQ,
    )
    from repro.firmware import reliable
    from repro.lib.mpi import MiniMPI
    from repro.sync import firmware as sync_fw
    from repro.traffic import KvClient, TrainJob
    from repro.traffic import firmware as traffic_fw

    expected = {
        MSG_SYNC_REQ: sync_fw.on_sync_req,
        MSG_SYNC_CBAR: sync_fw.on_sync_cbar,
        MSG_SYNC_INJECT: sync_fw.on_sync_inject,
        MSG_KV_REQ: traffic_fw._on_kv_req,
        MSG_PS_PUSH: traffic_fw._on_ps_push,
        MSG_USVC_REQ: traffic_fw._on_usvc_req,
        MSG_USVC_REP: traffic_fw._on_usvc_rep,
        MSG_COLL_REQ: coll_fw.on_coll_request,
        MSG_COLL_UP: coll_fw.on_coll_up,
        MSG_COLL_DOWN: coll_fw.on_coll_down,
        MSG_REL_DATA: reliable.on_rel_data,
        MSG_REL_ACK: reliable.on_rel_ack,
    }
    m = repro.StarTVoyager(repro.default_config(n_nodes=4))
    before = [dict(node.sp.state["msg_handlers"]) for node in m.nodes]
    for handlers in before:
        assert {t: handlers.get(t) for t in expected} == expected
    MiniMPI(m, algo="nic", reliable=True)
    fabric = m.sync_fabric()
    fabric.group(range(4), mode="switch")
    fabric.group(range(4), mode="endpoint")
    KvClient(m, m.node(0))
    TrainJob(m)
    assert [node.sp.state["msg_handlers"] for node in m.nodes] == before


# -- DMA request validation --------------------------------------------------------

def test_unknown_dma_mode_crashes_firmware(m2):
    from repro.mp.basic import BasicPort
    from repro.niu.niu import SP_SERVICE_QUEUE, vdst_for

    port = BasicPort(m2.node(0), 0, 0)

    def prog(api):
        yield from port.send(
            api, vdst_for(0, SP_SERVICE_QUEUE),
            DMA_REQ.pack(0x10000, 1, 0x20000, 64, 7, 9))

    m2.run_until(m2.spawn(0, prog), limit=1e8)
    from repro.common.errors import SimulationError
    with pytest.raises(SimulationError):
        m2.run(until=m2.now + 200_000)
