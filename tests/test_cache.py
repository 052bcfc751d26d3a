"""The snooping write-back L2: hits, fills, evictions, coherence, and
frames created on first fill."""

import random

import pytest

import repro
from repro.bus.bus import MemoryBus
from repro.bus.ops import BusOpType, BusTransaction
from repro.bus.snoop import SnoopResult
from repro.common.config import default_config
from repro.mem.address import AccessMode, AddressMap, Region
from repro.mem.cache import CacheLine, LineState, SnoopingL2
from repro.mem.dram import DRAM
from repro.sim.engine import Engine


@pytest.fixture
def rig(engine):
    return _build_rig(engine, ways=2)


def _build_rig(engine, ways, l2_cls=SnoopingL2):
    config = default_config()
    config.l2.size_bytes = 4096  # small cache so evictions are reachable
    config.l2.ways = ways
    amap = AddressMap()
    dram = DRAM(engine, config.dram, config.bus, base=0)
    amap.add(Region("dram", 0, config.dram.size_bytes, AccessMode.CACHED,
                    owner=dram))
    bus = MemoryBus(engine, config.bus, amap)
    l2 = l2_cls(engine, config.l2, bus, dram)
    return engine, bus, dram, l2


def _run(engine, gen):
    return engine.run_until_triggered(engine.process(gen))


def test_miss_then_hit(rig):
    engine, bus, dram, l2 = rig
    dram.poke(0x100, b"mem-data")

    def body():
        a = yield from l2.load(0x100, 8)
        b = yield from l2.load(0x100, 8)
        return a, b

    a, b = _run(engine, body())
    assert a == b == b"mem-data"
    assert l2.stats()["misses"] == 1
    assert l2.stats()["hits"] == 1


def test_store_makes_modified(rig):
    engine, _, dram, l2 = rig

    def body():
        yield from l2.store(0x200, b"dirty!!!")

    _run(engine, body())
    assert l2.state_of(0x200) is LineState.MODIFIED
    # write-back: DRAM not yet updated
    assert dram.peek(0x200, 8) == bytes(8)


def test_load_fill_is_shared(rig):
    engine, _, _, l2 = rig

    def body():
        yield from l2.load(0x300, 4)

    _run(engine, body())
    assert l2.state_of(0x300) is LineState.SHARED


def test_upgrade_issues_kill(rig):
    engine, bus, _, l2 = rig
    kills = []

    class Watch:
        snooper_name = "watch"

        def snoop(self, txn):
            if txn.op is BusOpType.KILL:
                kills.append(txn.addr)
            from repro.bus.snoop import SnoopResult
            return SnoopResult.OK

    bus.attach_snooper(Watch())

    def body():
        yield from l2.load(0x400, 8)  # S
        yield from l2.store(0x400, b"x")  # upgrade

    _run(engine, body())
    assert kills == [0x400]
    assert l2.state_of(0x400) is LineState.MODIFIED
    assert l2.stats()["upgrades"] == 1


def test_eviction_writes_back(rig):
    engine, _, dram, l2 = rig
    n_sets = l2.config.n_sets
    stride = n_sets * l2.config.line_bytes  # same set, different tags

    def body():
        yield from l2.store(0x0, b"victim!!")
        yield from l2.store(0x0 + stride, b"way2")
        yield from l2.store(0x0 + 2 * stride, b"evictor")  # evicts LRU

    _run(engine, body())
    assert l2.stats()["writebacks"] == 1
    assert dram.peek(0x0, 8) == b"victim!!"


def test_snoop_foreign_read_pushes_and_downgrades(rig):
    engine, bus, dram, l2 = rig

    def body():
        yield from l2.store(0x500, b"mine....")
        t = BusTransaction(BusOpType.READ, 0x500, 8, master="niu")
        yield from bus.transact(t)
        return t.data

    assert _run(engine, body()) == b"mine...."
    assert l2.state_of(0x500) is LineState.SHARED
    assert l2.stats()["snoop_pushes"] == 1


def test_snoop_rwitm_invalidates(rig):
    engine, bus, dram, l2 = rig

    def body():
        yield from l2.store(0x600, b"gone....")
        t = BusTransaction(BusOpType.RWITM, 0x600, 32, master="niu")
        yield from bus.transact(t)
        return t.data

    data = _run(engine, body())
    assert data[:8] == b"gone...."  # pushed before serving
    assert l2.state_of(0x600) is LineState.INVALID


def test_snoop_foreign_write_invalidates_shared(rig):
    engine, bus, _, l2 = rig

    def body():
        yield from l2.load(0x700, 8)
        t = BusTransaction(BusOpType.WRITE, 0x700, 8, b"newdata!",
                           master="niu")
        yield from bus.transact(t)
        d = yield from l2.load(0x700, 8)  # re-fills from DRAM
        return d

    assert _run(engine, body()) == b"newdata!"


def test_snoop_kill_invalidates(rig):
    engine, bus, _, l2 = rig

    def body():
        yield from l2.load(0x800, 8)
        t = BusTransaction(BusOpType.KILL, 0x800, 32, master="niu")
        yield from bus.transact(t)

    _run(engine, body())
    assert l2.state_of(0x800) is LineState.INVALID


def test_snoop_flush_pushes_and_invalidates(rig):
    engine, bus, dram, l2 = rig

    def body():
        yield from l2.store(0x900, b"flushme!")
        t = BusTransaction(BusOpType.FLUSH, 0x900, 32, master="niu")
        yield from bus.transact(t)

    _run(engine, body())
    assert dram.peek(0x900, 8) == b"flushme!"
    assert l2.state_of(0x900) is LineState.INVALID


def test_own_transactions_not_snooped(rig):
    engine, bus, _, l2 = rig

    def body():
        yield from l2.store(0xA00, b"selfsafe")
        yield from l2.load(0xA20, 8)  # same line? no: +0x20 next line, fills
        return l2.state_of(0xA00)

    assert _run(engine, body()) is LineState.MODIFIED


def test_straddling_access_rejected(rig):
    engine, _, _, l2 = rig

    def body():
        yield from l2.load(0x1E, 8)  # crosses the 32-byte boundary

    from repro.common.errors import SimulationError
    with pytest.raises(SimulationError):
        _run(engine, body())


def test_hit_does_not_use_bus(rig):
    engine, bus, _, l2 = rig

    def body():
        yield from l2.load(0xB00, 8)
        before = bus.busy_ns()
        yield from l2.load(0xB00, 8)
        return before, bus.busy_ns()

    before, after = _run(engine, body())
    assert before == after


def test_snoop_foreign_partial_write_merges(rig):
    """A foreign partial write to a line we hold Modified must merge with
    our modifications, not destroy them (the snoop pushes our line to
    DRAM before the foreign data tenure applies).

    Regression guard: without the push, a remote update landing in the
    same line as unflushed local writes silently dropped them — caught by
    the update-region convergence property test.
    """
    engine, bus, dram, l2 = rig

    def body():
        # we modify the second word of the line
        yield from l2.store(0xC08, b"LOCALMOD")
        # a foreign master writes the FIRST word of the same line
        t = BusTransaction(BusOpType.WRITE, 0xC00, 8, b"FOREIGN!",
                           master="niu")
        yield from bus.transact(t)
        # both survive in DRAM; our copy was invalidated
        return dram.peek(0xC00, 16)

    merged = _run(engine, body())
    assert merged == b"FOREIGN!LOCALMOD"
    assert l2.state_of(0xC00) is LineState.INVALID


# ----------------------------------------------------------------------
# frames created on first fill
# ----------------------------------------------------------------------

def test_fresh_machine_holds_no_l2_frames():
    m = repro.StarTVoyager(repro.default_config(n_nodes=64))
    assert all(not node.l2._sets for node in m.nodes)


def test_invalidated_frame_reused_before_a_new_one(rig):
    engine, bus, _, l2 = rig
    stride = l2.config.n_sets * l2.config.line_bytes  # same set

    def body():
        yield from l2.store(0x0, b"first")
        t = BusTransaction(BusOpType.RWITM, 0x0, 32, master="niu")
        yield from bus.transact(t)  # invalidates the only frame

    _run(engine, body())
    (frame,) = l2._sets[0]
    assert frame.state is LineState.INVALID
    _run(engine, l2.store(stride, b"second"))
    assert l2._sets[0] == [frame]  # reused, nothing new created
    _run(engine, l2.store(2 * stride, b"third"))
    assert len(l2._sets[0]) == 2


class _EagerL2(SnoopingL2):
    """The reference the lazy sets must match: every frame built up
    front, victim = the first INVALID frame, else the LRU one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        cfg = self.config
        self._sets = {i: [CacheLine(cfg.line_bytes) for _ in range(cfg.ways)]
                      for i in range(cfg.n_sets)}

    def _victim(self, set_idx):
        frames = self._sets[set_idx]
        for frame in frames:
            if frame.state is LineState.INVALID:
                return frame
        return min(frames, key=lambda f: f.lru)


class _BusLog:
    snooper_name = "log"

    def __init__(self):
        self.txns = []

    def snoop(self, txn):
        self.txns.append((txn.op, txn.addr, txn.master))
        return SnoopResult.OK


def _replay(l2_cls, ways, seed):
    """Drive one cache through a seeded mix of loads, stores and foreign
    snoops on a handful of conflicting sets; return everything visible."""
    engine, bus, dram, l2 = _build_rig(Engine(), ways, l2_cls)
    log = _BusLog()
    bus.attach_snooper(log)
    rng = random.Random(seed)
    stride = l2.config.n_sets * l2.config.line_bytes
    addrs = [s * 32 + k * stride for s in range(3) for k in range(ways + 2)]
    seen = []

    def body():
        for step in range(400):
            addr = rng.choice(addrs) + 8 * rng.randrange(4)
            kind = rng.random()
            if kind < 0.45:
                seen.append((yield from l2.load(addr, 8)))
            elif kind < 0.85:
                yield from l2.store(addr, step.to_bytes(8, "big"))
            else:
                op = rng.choice([BusOpType.READ_LINE, BusOpType.RWITM,
                                 BusOpType.KILL, BusOpType.FLUSH])
                t = BusTransaction(op, addr & ~31, 32, master="niu")
                yield from bus.transact(t)

    _run(engine, body())
    states = [l2.state_of(a) for a in addrs]
    return (seen, log.txns, l2.stats(), states,
            dram.peek(0, 4 * stride), engine.now)


@pytest.mark.parametrize("ways", [1, 2, 4])
def test_lazy_sets_match_eager_model(ways):
    lazy = _replay(SnoopingL2, ways, seed=ways)
    eager = _replay(_EagerL2, ways, seed=ways)
    assert lazy == eager
    assert lazy[2]["writebacks"] > 0  # LRU victims were really evicted
