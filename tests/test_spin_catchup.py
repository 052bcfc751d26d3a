"""Dormant receive spins replay exactly (DESIGN.md §8.1, "Dormant spins").

A ``BasicPort.recv`` spin that nothing else touches goes dormant and is
replayed when a guard fires.  Every test here runs the same machine twice,
once with the engine's private opt-out ``_spin_off`` set (the slow path,
every poll through the engine) and once without, and requires the same
wall-stripped snapshot, executed-item count, final sequence number and
clock, and no tie (``spin_ties``) on the fast path.
"""

import hashlib
import json

import pytest

from repro.bench.harness import comparable
from repro.common.config import default_config
from repro.common.errors import SimulationError
from repro.core.machine import StarTVoyager
from repro.faults import FaultPlan, NodeCrash
from repro.mp import BasicPort
from repro.niu.msgformat import encode_rx_header
from repro.obs.snapshot import metrics_snapshot
from repro.scenarios import ScenarioMachine, scenario, scenario_names
from repro.sim.engine import Engine, SchedulePolicy


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
    agree and the fast path had no tie.  Returns the fast path's extra."""
    slow, slow_extra = build(True)
    fast, fast_extra = build(False)
    assert fast.engine.spin_ties == 0
    assert (_state(fast), fast_extra) == (_state(slow), slow_extra)
    return fast_extra


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
def test_sixteen_node_allreduce_replays_exactly(algo):
    # "tree" keeps all 16 ranks polling in lockstep: many dormant spins
    # share every instant, the case the replay's walk orders
    _both(_scenario_machine("collective", 16,
                            {"collective": "allreduce", "algo": algo}))


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
    machine.run(until=4000.0)
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
