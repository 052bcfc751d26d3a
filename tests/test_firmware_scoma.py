"""The S-COMA directory protocol: sharing, ownership, invalidation."""

import random

import pytest

import repro
from repro.common.errors import AddressError
from repro.niu.clssram import CLS_INVALID, CLS_RO, CLS_RW
from repro.shm import ScomaRegion


@pytest.fixture
def m2():
    return repro.StarTVoyager(repro.default_config(n_nodes=2))


@pytest.fixture
def m3():
    return repro.StarTVoyager(repro.default_config(n_nodes=3))


def _region(machine, n_lines=256):
    region = ScomaRegion(machine, n_lines=n_lines)
    return region


def test_home_lines_start_valid(m2):
    region = _region(m2)
    # line 0 is homed on node 0 (page round-robin)
    assert region.home_of(0) == 0
    assert region.cls_state(0, 0) == CLS_RW
    assert region.cls_state(1, 0) == CLS_INVALID


def test_home_read_is_local(m2):
    region = _region(m2)
    region.init_data(0, b"\x11" * 32)
    sp1_busy = m2.node(1).sp.busy.busy_ns

    def prog(api):
        return (yield from api.load(region.addr(0), 8))

    assert m2.run_until(m2.spawn(0, prog), limit=1e8) == b"\x11" * 8
    # no protocol traffic: the remote sP never woke
    assert m2.node(1).sp.busy.busy_ns == sp1_busy


def test_remote_read_fetches_and_caches(m2):
    region = _region(m2)
    region.init_data(0, bytes(range(32)))

    def prog(api):
        a = yield from api.load(region.addr(0), 8)
        b = yield from api.load(region.addr(8), 8)  # same line: now local
        return a, b

    a, b = m2.run_until(m2.spawn(1, prog), limit=1e9)
    assert a == bytes(range(8))
    assert b == bytes(range(8, 16))
    assert region.cls_state(1, 0) == CLS_RO
    # the home downgraded its own copy to read-only
    assert region.cls_state(0, 0) == CLS_RO


def test_remote_write_takes_ownership(m2):
    region = _region(m2)
    region.init_data(0, b"\x00" * 32)

    def writer(api):
        yield from api.store(region.addr(0), b"OWNED!!!")

    m2.run_until(m2.spawn(1, writer), limit=1e9)
    m2.run(until=m2.now + 100_000)
    assert region.cls_state(1, 0) == CLS_RW
    assert region.cls_state(0, 0) == CLS_INVALID  # home gave it up


def test_dirty_recall_returns_data(m2):
    region = _region(m2)
    region.init_data(0, b"\x00" * 32)

    def writer(api):
        yield from api.store(region.addr(0), b"DIRTYDAT")

    def reader(api):
        return (yield from api.load(region.addr(0), 8))

    m2.run_until(m2.spawn(1, writer), limit=1e9)
    # home reads it back: recall from the remote owner
    assert m2.run_until(m2.spawn(0, reader), limit=1e9) == b"DIRTYDAT"
    m2.run(until=m2.now + 100_000)
    assert region.cls_state(0, 0) == CLS_RO
    assert region.cls_state(1, 0) == CLS_RO


def test_write_invalidates_sharers(m3):
    region = _region(m3)
    region.init_data(0, b"\xaa" * 32)

    def read(api):
        return (yield from api.load(region.addr(0), 8))

    # nodes 1 and 2 both share the line
    m3.run_until(m3.spawn(1, read), limit=1e9)
    m3.run_until(m3.spawn(2, read), limit=1e9)
    assert region.cls_state(1, 0) == CLS_RO
    assert region.cls_state(2, 0) == CLS_RO

    def write(api):
        yield from api.store(region.addr(0), b"newvalue")

    m3.run_until(m3.spawn(1, write), limit=1e9)
    m3.run(until=m3.now + 200_000)
    assert region.cls_state(1, 0) == CLS_RW
    assert region.cls_state(2, 0) == CLS_INVALID
    assert region.cls_state(0, 0) == CLS_INVALID

    # node 2 re-reads: sees the new value through a recall
    got = m3.run_until(m3.spawn(2, read), limit=1e9)
    assert got == b"newvalue"


def test_value_propagation_chain(m2):
    """Alternating writers: every write must be seen by the next reader."""
    region = _region(m2)
    region.init_data(0, b"\x00" * 32)

    def rmw(api, who):
        v = yield from api.load(region.addr(0), 8)
        n = int.from_bytes(v, "big") + 1
        yield from api.store(region.addr(0), n.to_bytes(8, "big"))
        return n

    values = []
    for round_ in range(6):
        node = round_ % 2
        values.append(m2.run_until(m2.spawn(node, rmw, node), limit=1e10))
    assert values == [1, 2, 3, 4, 5, 6]


def test_second_page_homed_remotely(m2):
    region = _region(m2)
    page_lines = m2.config.dram.page_bytes // 32
    offset = page_lines * 32  # first line of page 1: home is node 1
    assert region.home_of(offset) == 1
    region.init_data(offset, b"\x42" * 32)

    def prog(api):
        return (yield from api.load(region.addr(offset), 8))

    # node 0 reads a line homed on node 1
    assert m2.run_until(m2.spawn(0, prog), limit=1e9) == b"\x42" * 8
    assert region.cls_state(0, offset) == CLS_RO


def test_l2_invalidated_on_protocol_invalidate(m2):
    """A cached copy in the reader's L2 must die with its cls state."""
    region = _region(m2)
    region.init_data(0, b"\x10" * 32)

    def read(api):
        return (yield from api.load(region.addr(0), 8))

    m2.run_until(m2.spawn(1, read), limit=1e9)  # node 1 caches in L2 + frame

    def write(api):
        yield from api.store(region.addr(0), b"FRESHEST")

    m2.run_until(m2.spawn(0, write), limit=1e9)  # home upgrade invalidates
    m2.run(until=m2.now + 200_000)
    got = m2.run_until(m2.spawn(1, read), limit=1e9)
    assert got == b"FRESHEST"


def test_concurrent_readers_converge(m3):
    region = _region(m3)
    region.init_data(0, b"\x07" * 32)

    def read(api):
        return (yield from api.load(region.addr(0), 8))

    procs = [m3.spawn(n, read) for n in (1, 2)]
    results = m3.run_all(procs, limit=1e10)
    assert results == [b"\x07" * 8, b"\x07" * 8]


def test_region_bounds(m2):
    region = _region(m2, n_lines=4)
    from repro.common.errors import ProgramError
    with pytest.raises(ProgramError):
        region.addr(4 * 32)
    with pytest.raises(ProgramError):
        ScomaRegion(m2, n_lines=10**9)


# ----------------------------------------------------------------------
# the shared home map and the bulk clsSRAM home-state write
# ----------------------------------------------------------------------

def _per_line_rule(home_of, node_id, n_lines):
    """The clsSRAM states the per-line setup loop used to write."""
    return [(CLS_RW if home == node_id else CLS_INVALID)
            for home in home_of] + [CLS_INVALID] * (n_lines - len(home_of))


def _cls_states(node):
    cls = node.niu.cls
    return [cls.state(line) for line in range(cls.n_lines)]


def test_default_home_states_match_per_line_rule(m3):
    cls = m3.node(0).niu.cls
    lines_per_page = m3.config.dram.page_bytes // cls.line_bytes
    home_of = [(line // lines_per_page) % 3 for line in range(cls.n_lines)]
    for i in range(3):
        assert _cls_states(m3.node(i)) == _per_line_rule(home_of, i,
                                                         cls.n_lines)


def test_custom_home_states_match_per_line_rule():
    cfg = repro.default_config(n_nodes=3)
    rng = random.Random(7)
    home_of = [rng.randrange(3) for _ in range(1000)]  # shorter than coverage
    cfg.scoma_home_of = home_of
    m = repro.StarTVoyager(cfg)
    n_lines = m.node(0).niu.cls.n_lines
    for i in range(3):
        assert _cls_states(m.node(i)) == _per_line_rule(home_of, i, n_lines)
        assert m.node(i).sp.state["scoma"].home_of == tuple(home_of)


def test_home_map_longer_than_coverage_rejected(m2):
    n_lines = m2.node(0).niu.cls.n_lines
    cfg = repro.default_config(n_nodes=2)
    cfg.scoma_home_of = [0] * (n_lines + 1)
    with pytest.raises(AddressError):
        repro.StarTVoyager(cfg)


def test_default_home_map_shared_and_never_mutated(m2):
    maps = [m2.node(i).sp.state["scoma"].home_of for i in range(2)]
    assert maps[0] is maps[1]  # one map per machine, not one per node
    before = list(maps[0])
    page_lines = m2.config.dram.page_bytes // 32
    region = _region(m2, n_lines=3 * page_lines)

    def prog(api, rank):
        for line in (0, page_lines, 2 * page_lines + 1):
            yield from api.store(region.addr(line * 32), bytes([rank + 1]) * 8)
            yield from api.load(region.addr(line * 32), 8)

    m2.run_all([m2.spawn(i, prog, i) for i in range(2)], limit=1e10)
    assert list(maps[0]) == before
    with pytest.raises(TypeError):
        maps[0][0] = 1  # read-only: a tuple
