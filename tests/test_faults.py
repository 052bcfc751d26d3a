"""Fault injection and reliable delivery: seeded loss, go-back-N, crash.

Covers the ``repro.faults`` plan/injector pair (seeded drops, corrupt
packets, timed link up/down, sP stalls, node crash) and the firmware
ack/retransmit engine recovering from all of it: exact delivery under
loss, window wrap, duplicate-ack behaviour, retransmit-buffer
backpressure, up/down re-routing around downed links, and survivor
consistency when a node dies mid-S-COMA.
"""

import repro
from repro.bench.harness import comparable, run_sweep
from repro.faults import FaultPlan, LinkEvent, LinkFault, NodeCrash, SpStall
from repro.firmware.reliable import SEQ_MOD, seq_lt
from repro.lib.mpi import MiniMPI
from repro.mp.basic import BasicPort
from repro.niu.niu import vdst_for


def _machine(n, plan=None):
    cfg = repro.default_config(n_nodes=n)
    cfg.faults = plan
    return repro.StarTVoyager(cfg)


def _flood(machine, count, reliable, payload_bytes=16, idle_ns=None):
    """Rank 0 floods rank 1; returns the delivered payload list."""
    p0 = BasicPort(machine.node(0), 0, 0)
    p1 = BasicPort(machine.node(1), 0, 0)
    if idle_ns is None:
        # reliable delivery must out-wait the maximum retransmit backoff
        idle_ns = 3e6 if reliable else 1e5

    def sender(api):
        for i in range(count):
            payload = i.to_bytes(4, "big").ljust(payload_bytes, b"\x00")
            if reliable:
                yield from p0.send_reliable(api, 1, payload)
            else:
                yield from p0.send(api, vdst_for(1, 0), payload)

    def receiver(api):
        got = []
        last_rx = api.now
        while len(got) < count and api.now - last_rx < idle_ns:
            msg = yield from p1.poll(api)
            if msg is None:
                yield from api.compute(500)
                continue
            got.append(bytes(msg[1]))
            last_rx = api.now
        return got

    s = machine.spawn(0, sender)
    r = machine.spawn(1, receiver)
    return machine.run_all([s, r], limit=1e10)[1]


def _rel_count(machine, suffix):
    counters = machine.metrics()["counters"]
    return sum(v for k, v in counters.items() if k.endswith(suffix))


# ----------------------------------------------------------------------
# sequence arithmetic
# ----------------------------------------------------------------------

def test_seq_lt_serial_arithmetic():
    assert seq_lt(0, 1)
    assert seq_lt(SEQ_MOD - 1, 0)  # wrap
    assert seq_lt(SEQ_MOD - 3, 4)
    assert not seq_lt(1, 0)
    assert not seq_lt(0, 0)
    assert not seq_lt(0, SEQ_MOD - 1)  # that's "behind", not ahead


# ----------------------------------------------------------------------
# injection + detection
# ----------------------------------------------------------------------

def test_lossless_baseline_with_zero_prob_plan():
    """A plan of all-zero probabilities behaves exactly like no plan."""
    count = 12
    base = _machine(2)
    faulted = _machine(2, FaultPlan.uniform_loss(0.0, seed=9))
    got_a = _flood(base, count, reliable=False)
    got_b = _flood(faulted, count, reliable=False)
    assert got_a == got_b
    assert (comparable(base.metrics(include_config=False))
            == comparable(faulted.metrics(include_config=False)))


def test_unreliable_loses_and_reliable_does_not():
    """Under 1% seeded loss the raw path measurably loses messages
    while the go-back-N path delivers every one, in order."""
    count = 150
    plan = FaultPlan.uniform_loss(0.01, corrupt_p=0.005, seed=2)
    lossy = _machine(2, plan.copy())
    got = _flood(lossy, count, reliable=False)
    assert len(got) < count  # measurably lossy

    rel = _machine(2, plan.copy())
    got = _flood(rel, count, reliable=True)
    assert [int.from_bytes(p[:4], "big") for p in got] == list(range(count))
    assert _rel_count(rel, ".rel.delivered") == count


def test_corrupt_packets_detected_and_counted():
    """Corrupted packets fail the CRC at the receiving CTRL and land in
    the per-reason drop counters; nothing corrupt is ever delivered."""
    count = 60
    plan = FaultPlan(seed=5, link_faults=[
        LinkFault(pattern="n0->sw1.0", drop_p=0.0, corrupt_p=0.25),
    ])
    m = _machine(2, plan)
    got = _flood(m, count, reliable=False)
    corrupt = _rel_count(m, ".corrupt")
    assert corrupt > 0
    assert len(got) == count - corrupt
    # delivered payloads are exactly the uncorrupted originals
    for p in got:
        assert p[4:] == bytes(len(p) - 4)


def test_seeded_faults_deterministic_across_jobs():
    """The same fault seed produces byte-identical outcomes whether the
    sweep runs inline or fanned out over processes."""
    specs = [(0.03, 2), (0.03, 3), (0.0, 2)]
    a = run_sweep(_loss_point, specs, jobs=1)
    b = run_sweep(_loss_point, specs, jobs=2)
    assert a == b
    assert a[0] != a[1]  # different seeds, different loss patterns


def _loss_point(spec):
    loss, seed = spec
    plan = FaultPlan.uniform_loss(loss, corrupt_p=loss / 2, seed=seed)
    m = _machine(2, plan)
    got = _flood(m, 80, reliable=True)
    return got, comparable(m.metrics())


def test_fault_sweep_byte_identical_across_jobs():
    """The full benchmark grid (``benchmarks/bench_faults.fault_sweep``)
    merges byte-identically whether run inline or over worker processes
    — the wall-clock gauges are stripped per point, everything else is
    seeded simulation."""
    import os
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if root not in sys.path:
        sys.path.insert(0, root)
    from benchmarks.bench_faults import fault_sweep

    a = fault_sweep(jobs=1, loss_rates=(0.02,))
    b = fault_sweep(jobs=2, loss_rates=(0.02,))
    assert a == b


def test_minimpi_reliable_multifragment_over_lossy_fabric():
    """``MiniMPI(reliable=True)`` reassembles a multi-fragment message
    exactly even when the fabric drops and corrupts packets."""
    plan = FaultPlan.uniform_loss(0.02, corrupt_p=0.01, seed=4)
    m = _machine(2, plan)
    mpi = MiniMPI(m, reliable=True)
    data = bytes(range(256)) * 2  # 512 B -> 7 fragments of <= 74 B

    def tx(api):
        yield from mpi.rank(0).send(api, 1, data, tag=3)

    def rx(api):
        return (yield from mpi.rank(1).recv(api, src=0, tag=3))

    m.spawn(0, tx)
    src, tag, got = m.run_until(m.spawn(1, rx), limit=1e10)
    assert (src, tag) == (0, 3)
    assert got == data


# ----------------------------------------------------------------------
# go-back-N edge cases
# ----------------------------------------------------------------------

def test_window_wraps_across_seq_space():
    """Flows starting near SEQ_MOD wrap without reordering or loss."""
    count = 20
    m = _machine(2, FaultPlan.uniform_loss(0.05, seed=7))
    start = SEQ_MOD - 5
    st0 = m.node(0).sp.state["rel"]
    st0.flow(1, m.config.reliability.timeout_ns).seq_next = start
    m.node(1).sp.state["rel"].rx_expected[0] = start
    got = _flood(m, count, reliable=True)
    assert [int.from_bytes(p[:4], "big") for p in got] == list(range(count))
    assert st0.flows[1].seq_next == (start + count) % SEQ_MOD


def test_ack_loss_causes_duplicates_not_loss():
    """Dropping only the ACK direction forces timeout retransmissions of
    already-delivered segments; the receiver counts the duplicates and
    the delivered stream stays exact."""
    count = 15
    plan = FaultPlan(seed=11, link_faults=[
        LinkFault(pattern="n1->sw1.0", drop_p=0.5, corrupt_p=0.0),
    ])
    m = _machine(2, plan)
    p0 = BasicPort(m.node(0), 0, 0)
    p1 = BasicPort(m.node(1), 0, 0)

    def sender(api):
        for i in range(count):
            yield from p0.send_reliable(api, 1, i.to_bytes(4, "big"))
            # out-wait the base RTO so a lost ACK means a retransmission
            # of a segment the receiver already has
            while api.now < (i + 1) * 100_000:
                yield from api.compute(2000)

    def receiver(api):
        got = []
        last_rx = api.now
        while len(got) < count and api.now - last_rx < 3e6:
            msg = yield from p1.poll(api)
            if msg is None:
                yield from api.compute(500)
                continue
            got.append(bytes(msg[1]))
            last_rx = api.now
        return got

    s = m.spawn(0, sender)
    r = m.spawn(1, receiver)
    got = m.run_all([s, r], limit=1e10)[1]
    assert [int.from_bytes(p, "big") for p in got] == list(range(count))
    assert _rel_count(m, ".rel.duplicates") > 0
    assert _rel_count(m, ".rel.retransmits") > 0
    assert _rel_count(m, ".rel.delivered") == count


def test_window_full_backpressures_the_ap():
    """A tiny window forces the tx dispatcher to leave requests queued
    (counted) and stalls the aP rather than dropping anything."""
    count = 30
    cfg = repro.default_config(n_nodes=2)
    cfg.reliability.window = 2
    m = repro.StarTVoyager(cfg)
    got = _flood(m, count, reliable=True)
    assert [int.from_bytes(p[:4], "big") for p in got] == list(range(count))
    assert _rel_count(m, ".rel.backpressured") > 0


# ----------------------------------------------------------------------
# link down / re-routing
# ----------------------------------------------------------------------

def test_reroute_around_downed_spine_link():
    """Downing the up-link the default route uses diverts traffic over
    the fat tree's other copy; messages still arrive."""
    m = _machine(4)
    topo = m.network.topology
    ports = topo.route(0, 2)
    d = topo.down_degree
    up_port = next(p for p in ports if p >= d) - d
    name = topo.up_link_name(1, topo.leaf_switch(0), up_port)
    m.network.down_links.add(name)  # no plan armed; drive the network directly

    p0 = BasicPort(m.node(0), 0, 0)
    p2 = BasicPort(m.node(2), 0, 0)

    def sender(api):
        yield from p0.send(api, vdst_for(2, 0), b"detour")

    def receiver(api):
        return (yield from p2.recv(api))

    m.spawn(0, sender)
    src, payload = m.run_until(m.spawn(2, receiver), limit=1e9)
    assert (src, bytes(payload)) == (0, b"detour")
    alt = topo.route(0, 2, avoid=m.network.down_links)
    assert alt != ports


def test_timed_link_down_then_up_with_reliable_traffic():
    """A link that dies mid-stream and comes back later only delays the
    reliable flow (retransmissions bridge the outage)."""
    count = 30
    plan = FaultPlan(seed=1, link_events=[
        LinkEvent(time_ns=50_000.0, link="n0->sw1.0", up=False),
        LinkEvent(time_ns=450_000.0, link="n0->sw1.0", up=True),
    ])
    m = _machine(2, plan)
    got = _flood(m, count, reliable=True)
    assert [int.from_bytes(p[:4], "big") for p in got] == list(range(count))
    assert _rel_count(m, ".rel.retransmits") > 0


# ----------------------------------------------------------------------
# sP stall and node crash
# ----------------------------------------------------------------------

def test_sp_stall_delays_but_does_not_lose():
    """A stalled receiver sP parks incoming reliable traffic until the
    stall window ends; everything is delivered afterwards."""
    stall_ns = 80_000.0
    plan = FaultPlan(seed=1, sp_stalls=[
        SpStall(node=1, time_ns=1_000.0, duration_ns=stall_ns),
    ])
    m = _machine(2, plan)
    got = _flood(m, 5, reliable=True)
    assert len(got) == 5
    assert m.now > stall_ns


def test_crash_mid_scoma_survivors_stay_consistent():
    """Killing a node mid-run leaves lines homed at survivors coherent;
    the survivors' workload completes with the right values."""
    from repro.shm import ScomaRegion

    plan = FaultPlan(seed=1, node_crashes=[NodeCrash(node=2, time_ns=30_000.0)])
    cfg = repro.default_config(n_nodes=3)
    cfg.faults = plan
    m = repro.StarTVoyager(cfg)
    region = ScomaRegion(m, n_lines=16)
    assert region.home_of(0) == 0  # survivors only touch survivor-homed lines
    region.init_data(0, bytes(32))

    def victim(api):  # busy on its *own* lines until the crash takes it
        for i in range(1000):
            yield from api.compute(5000)

    def survivor(api, who):
        for i in range(6):
            yield from api.store(region.addr(0), bytes([who + i]) * 8)
            yield from api.compute(20_000)
        return (yield from api.load(region.addr(0), 8))

    m.spawn(2, victim)
    s0 = m.spawn(0, survivor, 0x10)
    s1 = m.spawn(1, survivor, 0x60)
    results = m.run_all([s0, s1], limit=1e10)
    # both survivors finished, and each read back a value some survivor
    # wrote (coherence: never a torn or stale-zero line)
    legal = {bytes([0x10 + i]) * 8 for i in range(6)} | \
            {bytes([0x60 + i]) * 8 for i in range(6)}
    assert set(results) <= legal
    assert m.node(2).ctrl.crashed
    assert m.node(2).sp.halted


def test_crashed_node_is_unreachable_but_counted():
    """Traffic toward a crashed node is dropped at the sender's CTRL
    (unroutable) instead of wedging the simulation."""
    plan = FaultPlan(seed=1, node_crashes=[NodeCrash(node=1, time_ns=100.0)])
    m = _machine(2, plan)
    p0 = BasicPort(m.node(0), 0, 0)

    def sender(api):
        yield from api.compute(10_000)  # let the crash land first
        yield from p0.send(api, vdst_for(1, 0), b"into-the-void")

    m.run_until(m.spawn(0, sender), limit=1e9)
    m.run(until=m.now + 100_000)  # let the tx pump hit the routing wall
    assert _rel_count(m, ".tx_unroutable") == 1
