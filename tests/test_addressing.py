"""One addressing decision per machine: ``send_to`` / ``fw_send_to``.

Up to 16 nodes a message to (node, logical queue) carries a translated
vdst byte; beyond that machine assembly switches every CTRL to RAW
headers.  Either way the same payload must land in the same logical
queue of the same node.
"""

import pytest

import repro
from repro.firmware.base import fw_send_to
from repro.mp.basic import BasicPort
from repro.niu.commands import CmdSendMessage
from repro.niu.msgformat import HEADER_BYTES, decode_header
from repro.niu.niu import vdst_for

QUEUE = 2  # an aP-owned logical rx queue
PAYLOAD = b"same bytes either way"


def _machine(n):
    return repro.StarTVoyager(repro.default_config(n_nodes=n))


@pytest.mark.parametrize("n, raw", [(16, False), (17, True)])
def test_send_to_picks_the_machine_addressing(n, raw):
    machine = _machine(n)
    dst = n - 1
    assert [node.ctrl.raw_addressing for node in machine.nodes] == [raw] * n
    tx_port = BasicPort(machine.node(0), 0, 0)
    rx_port = BasicPort(machine.node(dst), 0, QUEUE)

    def sender(api):
        yield from tx_port.send_to(api, dst, QUEUE, PAYLOAD)

    def receiver(api):
        return (yield from rx_port.recv(api))

    procs = [machine.spawn(0, sender), machine.spawn(dst, receiver)]
    assert machine.run_all(procs, limit=1e9)[1] == (0, PAYLOAD)
    hdr = decode_header(machine.node(0).niu.asram.peek(
        tx_port.tx.slot_offset(0), HEADER_BYTES))
    assert hdr.is_raw is raw
    if raw:
        assert (hdr.vdst, hdr.dst_queue) == (dst, QUEUE)
    else:
        assert hdr.vdst == vdst_for(dst, QUEUE)


@pytest.mark.parametrize("n, raw", [(16, False), (17, True)])
def test_fw_send_to_picks_the_machine_addressing(n, raw):
    machine = _machine(n)
    dst = n - 1
    sp = machine.node(0).sp
    sent = []
    enqueue = sp.sbiu.enqueue_command

    def spy(which, cmd):
        if isinstance(cmd, CmdSendMessage):
            sent.append(cmd.header)
        return enqueue(which, cmd)

    sp.sbiu.enqueue_command = spy
    rx_port = BasicPort(machine.node(dst), 0, QUEUE)

    def receiver(api):
        return (yield from rx_port.recv(api))

    machine.engine.process(fw_send_to(sp, dst, QUEUE, PAYLOAD))
    proc = machine.spawn(dst, receiver)
    assert machine.run_until(proc, limit=1e9) == (0, PAYLOAD)
    [hdr] = sent
    assert hdr.is_raw is raw
    if raw:
        assert (hdr.vdst, hdr.dst_queue) == (dst, QUEUE)
    else:
        assert hdr.vdst == vdst_for(dst, QUEUE)
