"""Active Messages: handler dispatch and the am_store pattern."""

import pytest

import repro
from repro.lib.activemsg import STORE_HANDLER_BASE, AmEndpoint
from repro.mp.basic import BasicPort


@pytest.fixture
def m2():
    return repro.StarTVoyager(repro.default_config(n_nodes=2))


def test_handler_runs_on_receiver(m2):
    ep0 = AmEndpoint(m2.node(0))
    ep1 = AmEndpoint(m2.node(1))
    ran = []

    def handler(api, src, args):
        ran.append((api.node_id, src, args))
        yield from api.compute(10)

    ep1.register(5, handler)

    def sender(api):
        yield from ep0.send(api, 1, 5, b"am-args")

    def receiver(api):
        yield from ep1.poll_wait(api)

    m2.spawn(0, sender)
    m2.run_until(m2.spawn(1, receiver), limit=1e9)
    assert ran == [(1, 0, b"am-args")]  # ran on node 1, from node 0


def test_multiple_handlers_by_id(m2):
    ep0 = AmEndpoint(m2.node(0))
    ep1 = AmEndpoint(m2.node(1))
    order = []

    def make(tag):
        def handler(api, src, args):
            order.append(tag)
            yield from api.compute(1)
        return handler

    ep1.register(1, make("one"))
    ep1.register(2, make("two"))

    def sender(api):
        yield from ep0.send(api, 1, 2)
        yield from ep0.send(api, 1, 1)
        yield from ep0.send(api, 1, 2)

    def receiver(api):
        for _ in range(3):
            yield from ep1.poll_wait(api)

    m2.spawn(0, sender)
    m2.run_until(m2.spawn(1, receiver), limit=1e9)
    assert order == ["two", "one", "two"]


def test_unregistered_handler_is_error(m2):
    ep0 = AmEndpoint(m2.node(0))
    ep1 = AmEndpoint(m2.node(1))

    def sender(api):
        yield from ep0.send(api, 1, 77)

    def receiver(api):
        yield from ep1.poll_wait(api)

    m2.spawn(0, sender)
    from repro.common.errors import SimulationError
    with pytest.raises(SimulationError):
        m2.run_until(m2.spawn(1, receiver), limit=1e9)


def test_poll_returns_false_when_idle(m2):
    ep = AmEndpoint(m2.node(0))

    def prog(api):
        return (yield from ep.poll(api))

    assert m2.run_until(m2.spawn(0, prog), limit=1e8) is False


def test_am_store_runs_handler_after_data(m2):
    """The §6 pattern: bulk data lands, then the handler runs and can
    read it immediately."""
    ep0 = AmEndpoint(m2.node(0))
    ep1 = AmEndpoint(m2.node(1))
    req_port = BasicPort(m2.node(0), 1, 1)
    data = bytes((i * 3 + 1) & 0xFF for i in range(2048))
    m2.node(0).dram.poke(0x12000, data)
    seen = {}

    def on_store(api, src, args):
        addr = int.from_bytes(args[0:6], "big")
        length = int.from_bytes(args[6:10], "big")
        first = yield from api.load(addr, 8)
        seen["first"] = first
        seen["meta"] = (src, addr, length)

    ep1.register(STORE_HANDLER_BASE, on_store)

    def sender(api):
        yield from ep0.announce_store_handler(
            api, 1, STORE_HANDLER_BASE, 0x22000, len(data))
        yield from ep0.am_store(api, req_port, 1, 0x12000, 0x22000,
                                len(data), STORE_HANDLER_BASE)

    def receiver(api):
        yield from ep1.poll_wait(api)  # the announcement (internal)
        yield from ep1.poll_wait(api)  # the store completion -> handler

    m2.spawn(0, sender)
    m2.run_until(m2.spawn(1, receiver), limit=1e10)
    assert seen["meta"] == (0, 0x22000, len(data))
    assert seen["first"] == data[:8]
    assert m2.node(1).dram.peek(0x22000, len(data)) == data


def test_same_length_stores_each_run_their_own_handler(m2):
    """Two announce + am_store pairs of one length from one sender, both
    queued before the receiver polls: each handler runs once, with its
    own address, in announcement order."""
    ep0, ep1 = AmEndpoint(m2.node(0)), AmEndpoint(m2.node(1))
    req_port = BasicPort(m2.node(0), 1, 1)
    stores = ((STORE_HANDLER_BASE, 0x22000),
              (STORE_HANDLER_BASE + 1, 0x23000))
    seen = []

    def on_store(handler_id):
        def handler(api, src, args):
            seen.append((handler_id, int.from_bytes(args[0:6], "big")))
            yield from api.compute(1)
        return handler

    for handler_id, _addr in stores:
        ep1.register(handler_id, on_store(handler_id))

    def sender(api):
        for handler_id, dst_addr in stores:
            yield from ep0.announce_store_handler(api, 1, handler_id,
                                                  dst_addr, 256)
            yield from ep0.am_store(api, req_port, 1, 0x12000, dst_addr,
                                    256, handler_id)

    def receiver(api):
        yield from api.sleep(200_000)  # both pairs are queued by now
        for _ in range(4):  # two announcements, two completions
            yield from ep1.poll_wait(api)

    m2.spawn(0, sender)
    m2.run_until(m2.spawn(1, receiver), limit=1e10)
    assert seen == list(stores)
    assert ep1.dispatched == 2


def test_bad_ids_rejected(m2):
    ep = AmEndpoint(m2.node(0))
    from repro.common.errors import ProgramError
    with pytest.raises(ProgramError):
        ep.register(300, lambda api, s, a: None)

    def prog(api):
        yield from ep.am_store(api, None, 1, 0, 0, 8, handler_id=3)

    from repro.common.errors import SimulationError
    with pytest.raises(SimulationError):
        m2.run_until(m2.spawn(0, prog), limit=1e8)
