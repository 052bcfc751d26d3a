"""Dormant receive spins replay exactly (DESIGN.md §8.1, "Dormant spins").

A ``BasicPort.recv`` spin that nothing else touches goes dormant and is
replayed when a guard fires, whole empty iterations arithmetically
(``ShadowPoll.skip``).  Every test here runs the same machine twice,
once with the engine's private opt-out ``_spin_off`` set (the slow path,
every poll through the engine) and once without, and requires the same
wall-stripped snapshot, executed-item count, final sequence number and
clock.
"""

import hashlib
import json

import pytest

from repro.bench.harness import comparable
from repro.common.config import default_config
from repro.common.errors import SimulationError
from repro.core.machine import StarTVoyager
from repro.faults import FaultPlan, NodeCrash
from repro.mem.sram import PORT_BUS
from repro.mp import BasicPort
from repro.niu.msgformat import encode_rx_header
from repro.node.ap import ShadowPoll
from repro.obs.snapshot import metrics_snapshot
from repro.scenarios import ScenarioMachine, scenario, scenario_names
from repro.sim.engine import Engine, SchedulePolicy
from repro.sim.process import Spin


def _state(machine):
    """What the two paths must agree on."""
    engine = machine.engine
    core = comparable(json.loads(json.dumps(metrics_snapshot(machine),
                                            default=repr)))
    blob = json.dumps(core, sort_keys=True, default=repr).encode()
    return (engine.events_executed, engine._seq, engine.now,
            hashlib.sha256(blob).hexdigest())


def _both(build):
    """``build(spin_off)`` -> (machine, extra) on each path; asserts they
    agree.  Returns the fast path's extra."""
    slow, slow_extra = build(True)
    fast, fast_extra = build(False)
    assert (_state(fast), fast_extra) == (_state(slow), slow_extra)
    return fast_extra


def _count_skips(monkeypatch):
    """Every iteration ShadowPoll.skip replays, counted."""
    skipped = []
    skip = ShadowPoll.skip

    def counting(self, due, t, inclusive):
        due, n = skip(self, due, t, inclusive)
        skipped.append(n)
        return due, n

    monkeypatch.setattr(ShadowPoll, "skip", counting)
    return skipped


def _scenario_machine(name, n_nodes, params):
    def build(spin_off):
        scn = scenario(name, **params)
        config = default_config(n_nodes=n_nodes)
        scn.prepare(config)
        run = ScenarioMachine(config, scn)
        run.machine.engine._spin_off = spin_off
        return run.machine, run.run().results
    return build


@pytest.mark.parametrize("name", scenario_names())
def test_every_scenario_point_replays_exactly(name):
    scn = scenario(name)
    _both(_scenario_machine(name, scn.min_nodes, dict(scn.explore_params)))


@pytest.mark.parametrize("algo", ["nic", "tree"])
def test_sixteen_node_allreduce_replays_exactly(monkeypatch, algo):
    # "tree" keeps all 16 ranks polling in lockstep: many dormant spins
    # share every instant, the case the replay's walk orders
    skipped = _count_skips(monkeypatch)
    _both(_scenario_machine("collective", 16,
                            {"collective": "allreduce", "algo": algo}))
    assert sum(skipped) > 0


# ----------------------------------------------------------------------
# one spinner on node 0 of a 2-node machine
# ----------------------------------------------------------------------


def _spinner(spin_off, setup=None, config=None):
    """Node 0 spins in ``recv`` on an empty queue; returns the machine,
    its port and the spinning process.  ``setup(machine, port)`` runs
    before the spinner starts."""
    machine = StarTVoyager(config or default_config(n_nodes=2))
    machine.engine._spin_off = spin_off
    port = BasicPort(machine.node(0), 0, 0)
    done = {}

    def spin(api):
        done["msg"] = yield from port.recv(api)
        done["at"] = api.now

    if setup is not None:
        setup(machine, port)
    proc = machine.spawn(0, spin)
    return machine, port, proc, done


def _deliver(machine, port):
    """Land one empty message in the port's rx queue and its pointer
    shadow, untimed, as a zero-time CTRL delivery would."""
    q = port.rx
    bank = machine.node(0).ctrl.asram
    bank.poke(q.slot_offset(q.producer), encode_rx_header(1, 0))
    q.advance_producer(q.producer + 1)
    bank.poke(q.shadow_offset, q.producer.to_bytes(4, "big")
              + q.consumer.to_bytes(4, "big"))


def _shadow_reads(n):
    """The instants of the first ``n`` shadow reads of the spin (slow
    path)."""
    machine, port, _proc, _done = _spinner(True)
    bank = machine.node(0).ctrl.asram
    reads = []
    read = bank.read

    def tapped(port_no, offset, length):
        if offset == port.rx.shadow_offset:
            reads.append(machine.now)
        return read(port_no, offset, length)

    bank.read = tapped
    while len(reads) < n:
        machine.run(until=machine.now + 4000.0)
    return reads[:n]


@pytest.mark.parametrize("offset", [-1.0, 0.0, 1.0],
                         ids=["before", "at", "after"])
def test_shadow_write_around_a_poll_read(offset):
    # the tenth read is well into the dormant stretch; a write at its
    # very instant was queued first, so it lands before the read
    at = _shadow_reads(10)[-1] + offset

    def build(spin_off):
        machine, port, proc, done = _spinner(
            spin_off, lambda m, p: m.engine._schedule_call(
                lambda: _deliver(m, p), at))
        machine.run_until(proc, limit=1e6)
        return machine, done

    done = _both(build)
    assert done["msg"] == (1, b"")


def test_write_at_the_end_of_a_shadow_read_is_seen():
    # a spinning process's sleeps sort after every ordinary item due at
    # the same instant: the tenth shadow read sees a pointer write
    # landing at its very end, whether the write was scheduled before
    # the read began or while it runs
    read_at = _shadow_reads(10)[-1]

    def order(first):
        def build(spin_off):
            def setup(m, p):
                def deliver():
                    _deliver(m, p)

                access = m.node(0).ctrl.asram.access_ns
                end = read_at + access  # the read's end, as the core adds
                if first == "write":
                    m.engine._schedule_call(deliver, end)
                else:
                    mid = read_at + access / 2  # so end - mid is exact
                    m.engine._schedule_call(lambda: m.engine._schedule_call(
                        deliver, end - mid), mid)

            machine, port, proc, done = _spinner(spin_off, setup)
            machine.run_until(proc, limit=1e6)
            return machine, (done, machine.node(0).ap.loads)

        return _both(build)

    seen = order("write")
    assert order("read") == seen
    # ten pointer loads, the last one finding the message, then its entry
    assert seen[0]["msg"] == (1, b"") and seen[1] == 10 + 1


class _Flag(Spin):
    """A toy spin with one guard, a flag that other code must check."""

    __slots__ = ("waker",)

    def __init__(self, engine):
        super().__init__(engine)
        self.waker = None

    def ready(self):
        return True

    def guard(self, waker):
        self.waker = waker


def _poller(eng, spin, log, touch=None, at=None):
    """Logs a poll every 10 ns until the run stops.  At ``at`` it first
    touches the guard of ``touch`` (a spin and its log) and logs whether
    that spin has polled at ``at`` yet."""
    while True:
        if eng.now == at:
            other, other_log = touch
            if other.waker is not None:
                other.waker.wake()
            log.append(("saw", at in other_log))
        log.append(eng.now)
        if not spin.dormant:
            yield spin
        yield 10.0


@pytest.mark.parametrize("first", ["dozer", "toucher"])
def test_banded_guard_at_the_instant_of_a_dormant_sleep(first):
    # a spinner that never dozes touches a dormant one's guard at the
    # instant its pending sleep ends: that sleep ran first exactly when
    # its spin was made first (its key is the smaller)
    runs = []
    for spin_off in (True, False):
        eng = Engine()
        eng._spin_off = spin_off
        if first == "dozer":
            dozer, toucher = _Flag(eng), Spin(eng)
        else:
            toucher, dozer = Spin(eng), _Flag(eng)
        logs = [], []
        eng.process(_poller(eng, dozer, logs[0]))
        eng.process(_poller(eng, toucher, logs[1], (dozer, logs[0]), 50.0))
        eng.run(until=75.0)
        runs.append((logs, eng.events_executed, eng._seq, eng.now))
    assert runs[0] == runs[1]
    assert ("saw", first == "dozer") in runs[0][0][1]


# ----------------------------------------------------------------------
# whole empty iterations replayed arithmetically (ShadowPoll.skip)
# ----------------------------------------------------------------------


def _poll_sleeps(read_at, machine):
    """The five sleeps of the empty iteration whose shadow read starts at
    ``read_at``, as (start, end) instants: address, snoop, CTRL op,
    read, compute."""
    node = machine.node(0)
    bus, bank = node.bus, node.ctrl.asram
    op = node.ctrl.op_ns
    read = bank.access_ns  # 4 bytes, one beat
    compute = machine.config.ap.insn_ns(25)  # recv's default poll_insns
    snooped = read_at - op
    addressed = snooped - bus._snoop_ns
    began = addressed - bus._address_ns
    return [(began, addressed), (addressed, snooped), (snooped, read_at),
            (read_at, read_at + read), (read_at + read, read_at + read + compute)]


@pytest.mark.parametrize("sleep", range(5),
                         ids=["address", "snoop", "op", "read", "compute"])
def test_shadow_write_in_each_sleep_after_skipped_iterations(
        monkeypatch, sleep):
    # the write lands inside one sleep of the 151st iteration, after
    # the dormant stretch before it was skipped whole
    reads = _shadow_reads(151)
    start, end = _poll_sleeps(reads[-1], _spinner(True)[0])[sleep]
    at = (start + end) / 2
    skipped = _count_skips(monkeypatch)

    def build(spin_off):
        machine, port, proc, done = _spinner(
            spin_off, lambda m, p: m.engine._schedule_call(
                lambda: _deliver(m, p), at))
        machine.run_until(proc, limit=1e6)
        return machine, done

    done = _both(build)
    assert done["msg"] == (1, b"")
    assert sum(skipped) >= 100


def test_long_spin_accounting_is_bit_exact(monkeypatch):
    skipped = _count_skips(monkeypatch)

    def build(spin_off):
        machine, _port, _proc, _done = _spinner(spin_off)
        machine.run(until=200_000.0)
        node = machine.node(0)
        bus = node.bus
        floats = (node.ap.busy.busy_ns, bus._arbiter._busy_time,
                  node.ctrl.asram._ports[PORT_BUS]._busy_time)
        return machine, ([x.hex() for x in floats], node.ap.loads,
                         node.niu.abiu.observed, bus._txns.value,
                         bus._bytes.value)

    _both(build)
    assert sum(skipped) >= 100


def test_another_program_storing_over_the_bus_mid_spin():
    def build(spin_off):
        def setup(machine, port):
            def other(api):
                yield from api.sleep(1234.0)
                yield from api.store_u32(0x3000, 7)
                yield from api.compute(30)
                _deliver(machine, port)

            machine.spawn(0, other)

        machine, port, proc, done = _spinner(spin_off, setup)
        machine.run_until(proc, limit=1e6)
        return machine, done

    _both(build)


def test_node_crash_interrupts_a_dormant_spinner():
    config = default_config(n_nodes=2)
    config.faults = FaultPlan(seed=1, node_crashes=[
        NodeCrash(node=0, time_ns=2500.0)])

    def build(spin_off):
        machine, _port, proc, _done = _spinner(spin_off, config=config)
        machine.run(until=5000.0)
        return machine, (proc.is_alive, type(proc.exception).__name__)

    assert _both(build) == (False, "Interrupt")


def test_run_until_stops_mid_poll_then_metrics_and_more():
    def build(spin_off):
        machine, port, proc, done = _spinner(spin_off)
        machine.run(until=1777.7)
        mid = _state(machine)
        machine.engine._schedule_call(lambda: _deliver(machine, port), 600.0)
        machine.run_until(proc, limit=1e6)
        return machine, (mid, done)

    _both(build)


def test_never_ending_spin_with_a_limit_raises_the_slow_path_error():
    def build(spin_off):
        machine, _port, proc, _done = _spinner(spin_off)
        with pytest.raises(SimulationError) as err:
            machine.run_until(proc, limit=20000.0)
        return machine, str(err.value)

    _both(build)


def test_never_ending_spin_without_a_limit_names_the_spinner():
    # the slow path never returns here
    machine, _port, proc, _done = _spinner(False)
    with pytest.raises(SimulationError, match=r"spin never ends.*spin"):
        machine.run_until(proc)


# ----------------------------------------------------------------------
# nothing goes dormant under a schedule policy or a tracer
# ----------------------------------------------------------------------


class _Recording(SchedulePolicy):
    def __init__(self):
        self.points = []

    def choose(self, time, ready):
        self.points.append((time, len(ready)))
        return 0


def _count_dozes(monkeypatch):
    dozes = []
    doze = Engine._doze

    def counting(self, *args):
        went = doze(self, *args)
        dozes.append(went)
        return went

    monkeypatch.setattr(Engine, "_doze", counting)
    return dozes


def test_schedule_policy_keeps_every_spin_awake(monkeypatch):
    dozes = _count_dozes(monkeypatch)

    def build(spin_off):
        policy = _Recording()
        machine, port, proc, done = _spinner(spin_off)
        machine.engine.schedule_policy = policy
        machine.engine._schedule_call(lambda: _deliver(machine, port), 3000.0)
        machine.run_until(proc, limit=1e6)
        return machine, (policy.points, done)

    _both(build)
    assert dozes and not any(dozes)


def test_active_tracer_keeps_every_spin_awake(monkeypatch):
    dozes = _count_dozes(monkeypatch)

    def build(spin_off):
        machine, port, proc, done = _spinner(spin_off)
        machine.tracer.enable("*")
        machine.engine._schedule_call(lambda: _deliver(machine, port), 3000.0)
        machine.run_until(proc, limit=1e6)
        return machine, done

    _both(build)
    assert dozes and not any(dozes)


def test_an_idle_spin_goes_dormant(monkeypatch):
    dozes = _count_dozes(monkeypatch)
    machine, _port, _proc, _done = _spinner(False)
    machine.run(until=3000.0)
    assert any(dozes)
