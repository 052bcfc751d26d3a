"""Runtime sanitizers (:mod:`repro.analysis.sanitize`).

Every checker must prove it detects a *seeded* violation — a sanitizer
that never fires is indistinguishable from one that is broken — and the
layer as a whole must be metrics-invisible: identical simulated results
with and without checkers installed.
"""

import pytest

import repro
from repro.analysis.sanitize import SANITIZER_NAMES, resolve_sanitizers
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError, DeadlockError, SanitizerError
from repro.firmware.reliable import _Flow
from repro.mp import BasicPort
from repro.niu.clssram import CLS_INVALID, CLS_RO, CLS_RW, ClsAction
from repro.bus.ops import BusOpType
from repro.niu.niu import vdst_for
from repro.shm import ScomaRegion


def machine_with(*names, n_nodes=2):
    return repro.StarTVoyager(
        repro.default_config(n_nodes=n_nodes, sanitize=tuple(names)))


def pingpong(machine):
    """One Basic-message round trip between nodes 0 and 1."""
    port0 = BasicPort(machine.node(0), tx_index=0, rx_logical=0)
    port1 = BasicPort(machine.node(1), tx_index=0, rx_logical=0)

    def node0(api):
        yield from port0.send(api, vdst_for(1, 0), b"ping")
        src, reply = yield from port0.recv(api)
        return src, reply

    def node1(api):
        src, msg = yield from port1.recv(api)
        yield from port1.send(api, vdst_for(0, 0), b"pong-" + msg)

    procs = [machine.spawn(0, node0), machine.spawn(1, node1)]
    return machine.run_all(procs, limit=1e9)


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------


def test_resolve_accepts_names_strings_and_all():
    assert resolve_sanitizers((), env="") == ()
    assert resolve_sanitizers("credit,queue", env="") == ("credit", "queue")
    assert resolve_sanitizers(("queue", "credit"), env="") == ("credit", "queue")
    assert resolve_sanitizers("all", env="") == SANITIZER_NAMES
    assert resolve_sanitizers((), env="all") == SANITIZER_NAMES


def test_resolve_merges_config_and_env():
    assert resolve_sanitizers("credit", env="deadlock") == ("credit", "deadlock")


def test_resolve_rejects_unknown_names():
    with pytest.raises(ConfigError, match="unknown sanitizer"):
        resolve_sanitizers("credits", env="")


def test_env_variable_installs_layer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "credit")
    machine = repro.StarTVoyager(repro.default_config(n_nodes=2))
    assert machine.sanitizers is not None
    assert machine.sanitizers.names == ("credit",)


def test_unsanitized_machine_carries_no_checker_state(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    machine = repro.StarTVoyager(repro.default_config(n_nodes=2))
    assert machine.sanitizers is None
    assert machine.engine.drain_hooks == []
    assert machine.node(0).sp.sanitizer is None
    assert machine.node(0).ctrl.cls.sanitizer is None


def test_config_validation_normalizes_sequences():
    cfg = MachineConfig(sanitize=["queue", "credit"])
    cfg.validate()
    assert cfg.sanitize == ("queue", "credit")


# ----------------------------------------------------------------------
# credit conservation
# ----------------------------------------------------------------------


def test_credit_clean_run_balances(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    machine = machine_with("credit")
    pingpong(machine)
    machine.run()  # full drain runs the conservation check
    report = machine.sanitizers.report()["credit"]
    assert report["acquires"] > 0
    assert report["acquires"] == report["returns"]


def test_credit_leak_detected_at_drain():
    machine = machine_with("credit")
    # seed the leak: steal a credit that will never be returned — the
    # signature of a drop path that forgot to hand its credit back
    machine.network.links[0]._credits[0].try_get()
    with pytest.raises(SanitizerError, match="credit leak"):
        machine.run()


def test_credit_double_return_detected():
    machine = machine_with("credit")
    credits = machine.network.links[0]._credits[0]
    # a buggy internal path re-issuing a credit it never held bypasses
    # the pool's capacity gate; the ledger must still catch it
    with pytest.raises(SanitizerError, match="double-return"):
        credits._accept(object())


# ----------------------------------------------------------------------
# queue overwrites + reliable windows
# ----------------------------------------------------------------------


def test_queue_overwrite_of_unconsumed_slot_detected():
    machine = machine_with("queue")
    ctrl = machine.node(0).ctrl
    q = ctrl.tx_queues[0]
    q.producer = q.consumer + 1  # one live, unconsumed entry
    sram = ctrl.asram if q.bank == 0 else ctrl.ssram
    with pytest.raises(SanitizerError, match="overwrites unconsumed entry"):
        sram.backing.write(q.slot_offset(q.consumer), b"\xee")
    q.producer = q.consumer


def test_queue_write_to_consumed_slot_passes():
    machine = machine_with("queue")
    ctrl = machine.node(0).ctrl
    q = ctrl.tx_queues[0]
    sram = ctrl.asram if q.bank == 0 else ctrl.ssram
    sram.backing.write(q.slot_offset(q.consumer), b"\xee")  # empty queue: fine
    assert machine.sanitizers.checker("queue").writes_checked > 0


def test_reliable_window_overflow_detected():
    machine = machine_with("queue")
    sp = machine.node(0).sp
    window = sp.ctrl.config.reliability.window
    flow = _Flow(dst=1, rto=1000.0)
    for seq in range(window + 1):
        flow.pending.append((seq, 0, b"x"))
    san = machine.sanitizers.checker("queue")
    with pytest.raises(SanitizerError, match="unacked segments"):
        san.on_rel_tx(sp, flow)


def test_reliable_window_gap_detected():
    machine = machine_with("queue")
    sp = machine.node(0).sp
    flow = _Flow(dst=1, rto=1000.0)
    flow.pending.append((0, 0, b"x"))
    flow.pending.append((2, 0, b"x"))  # seq 1 went missing from the window
    san = machine.sanitizers.checker("queue")
    with pytest.raises(SanitizerError, match="not consecutive"):
        san.on_rel_tx(sp, flow)


def test_reliable_rx_beyond_horizon_detected():
    machine = machine_with("queue")
    sp = machine.node(0).sp
    window = sp.ctrl.config.reliability.window
    san = machine.sanitizers.checker("queue")
    san.on_rel_rx(sp, src=1, seq=window, expected=0)  # on the horizon: legal
    with pytest.raises(SanitizerError, match="beyond the legal window"):
        san.on_rel_rx(sp, src=1, seq=window + 1, expected=0)


# ----------------------------------------------------------------------
# clsSRAM coherence
# ----------------------------------------------------------------------


def test_coherence_illegal_hardware_transition_detected():
    machine = machine_with("coherence")
    cls = machine.node(0).ctrl.cls
    # reprogram the aBIU table with a nonsense reaction: reads of owned
    # lines silently drop to INVALID
    cls.set_action(BusOpType.READ, CLS_RW, ClsAction(next_state=CLS_INVALID))
    cls.set_state(0, CLS_RW)
    with pytest.raises(SanitizerError, match="illegal clsSRAM hardware"):
        cls.check(BusOpType.READ, cls.addr_of(0))


def test_coherence_downgrading_fill_detected():
    machine = machine_with("coherence")
    cls = machine.node(0).ctrl.cls
    cls.set_state(0, CLS_RW)  # the local aP owns (and modified) the line
    with pytest.raises(SanitizerError, match="illegal clsSRAM fill"):
        cls.set_state(0, CLS_RO, fill=True)  # stale re-grant lands on it


def test_coherence_streaming_refill_and_plain_writes_legal():
    machine = machine_with("coherence")
    cls = machine.node(0).ctrl.cls
    cls.set_state(0, CLS_RW)
    cls.set_state(0, CLS_RW, fill=True)   # straddling chunk re-fill
    cls.set_state(0, CLS_RO)              # protocol downgrade, no data
    cls.set_state(0, CLS_INVALID)
    cls.set_state(0, CLS_RO, fill=True)   # fill onto a non-owned line
    assert machine.sanitizers.report()["coherence"]["fw_checked"] >= 5


def test_coherence_custom_protocol_states_ignored():
    machine = machine_with("coherence")
    cls = machine.node(0).ctrl.cls
    cls.set_state(0, 7)             # experimental protocol state
    cls.set_state(0, CLS_RW, fill=True)
    cls.set_state(0, 9, fill=True)  # leaving S-COMA space is not checked


def test_coherence_clean_scoma_run_passes():
    machine = machine_with("coherence")
    region = ScomaRegion(machine, n_lines=64)
    region.init_data(0, bytes(range(32)))

    def reader(api):
        return (yield from api.load(region.addr(0), 8))

    assert machine.run_until(machine.spawn(1, reader), limit=1e9) \
        == bytes(range(8))
    assert machine.sanitizers.report()["coherence"]["fw_checked"] > 0


# ----------------------------------------------------------------------
# deadlock watchdog
# ----------------------------------------------------------------------


def test_deadlock_detected_with_waitfor_graph():
    machine = machine_with("deadlock")

    def stuck():
        yield machine.engine.event(name="never-fires")

    machine.engine.process(stuck(), name="stuck-waiter")
    with pytest.raises(DeadlockError) as exc:
        machine.run()
    assert "stuck-waiter" in str(exc.value)
    assert "wait-for graph" in str(exc.value)


def test_deadlock_ignores_daemon_service_loops():
    machine = machine_with("deadlock")
    pingpong(machine)
    machine.run()  # only daemon pumps remain blocked: a clean drain


def test_deadlock_names_appear_in_run_until_error():
    machine = machine_with("deadlock")

    def waiter(api):
        yield machine.engine.event(name="nobody-signals")

    proc = machine.spawn(0, waiter)
    with pytest.raises(DeadlockError):
        machine.run_until(proc)


# ----------------------------------------------------------------------
# the layer
# ----------------------------------------------------------------------


def test_all_sanitizers_run_clean_and_report(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    machine = machine_with("all")
    assert machine.sanitizers.names == SANITIZER_NAMES
    pingpong(machine)
    machine.run()
    report = machine.sanitizers.report()
    assert set(report) == set(SANITIZER_NAMES)
    assert report["credit"]["acquires"] > 0
    assert report["queue"]["writes_checked"] > 0


def test_checker_lookup_raises_on_missing(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    machine = machine_with("credit")
    with pytest.raises(ConfigError, match="not installed"):
        machine.sanitizers.checker("queue")


def test_sanitizers_do_not_change_results(monkeypatch):
    """The whole layer must be invisible to the simulation itself."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    def run(names):
        machine = repro.StarTVoyager(
            repro.default_config(n_nodes=2, sanitize=names))
        result = pingpong(machine)
        machine.run()
        metrics = machine.metrics(include_config=False)
        del metrics["sim"]["wall"]  # host-load noise, not simulated state
        return result, machine.now, metrics

    assert run(()) == run(("all",))


def test_oracle_report_resets_between_runs(monkeypatch):
    """Back-to-back sanitized runs on one machine must report
    independently: the second report reflects only the second run's
    activity, not a running total (the explorer's per-schedule oracle
    depends on this)."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    machine = machine_with("all")
    pingpong(machine)
    machine.run()
    first = machine.sanitizers.oracle_report()
    pingpong(machine)
    machine.run()
    second = machine.sanitizers.oracle_report()
    assert first["credit"]["acquires"] > 0
    assert second["credit"]["acquires"] == first["credit"]["acquires"]
    assert second["queue"]["writes_checked"] == first["queue"]["writes_checked"]
    # without the reset the second pass would have doubled the totals
    third = machine.sanitizers.report()
    assert third["credit"]["acquires"] == 0


def test_reset_keeps_live_ledgers(monkeypatch):
    """reset() zeroes activity counters but must not forget live machine
    state: credits still held and coherence mirrors survive, so a leak
    spanning the reset is still caught at the next drain."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    machine = machine_with("credit")
    pingpong(machine)
    machine.run()
    checker = machine.sanitizers.checker("credit")
    held_before = {lane.name: lane.held for lane in checker.lanes}
    checker.reset()
    assert {lane.name: lane.held for lane in checker.lanes} == held_before
    assert all(lane.acquires == 0 for lane in checker.lanes)


def test_queue_fill_of_unconsumed_slot_detected():
    """A fill is a write: the guarded backing checks it too."""
    machine = machine_with("queue")
    ctrl = machine.node(0).ctrl
    q = ctrl.tx_queues[0]
    q.producer = q.consumer + 1
    sram = ctrl.asram if q.bank == 0 else ctrl.ssram
    with pytest.raises(SanitizerError, match="overwrites unconsumed entry"):
        sram.backing.fill(q.slot_offset(q.consumer), 4)
    q.producer = q.consumer
