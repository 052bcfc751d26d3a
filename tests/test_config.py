"""MachineConfig defaults, validation, and copying."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.common import wire
from repro.common.config import (
    BusConfig,
    CacheConfig,
    MachineConfig,
    NetworkConfig,
    NIUConfig,
    ProcessorConfig,
    default_config,
)
from repro.common.errors import ConfigError


def test_default_is_valid():
    cfg = default_config()
    assert cfg.n_nodes == 2
    assert cfg.ap.clock_mhz == 166.0
    assert cfg.bus.clock_mhz == 66.0
    assert cfg.network.link_mb_per_s == 160.0


def test_paper_constants():
    cfg = default_config()
    # 96-byte Arctic packets leave 88 bytes of payload, the Basic cap
    assert cfg.network.max_packet_bytes == 96
    assert cfg.network.max_payload_bytes == 88
    assert wire.MAX_PAYLOAD == 88
    # 16 hardware queues each way
    assert cfg.niu.n_hw_tx_queues == 16
    assert cfg.niu.n_hw_rx_queues == 16
    # at least two network priorities are required by the paper
    assert cfg.network.priorities >= 2


def test_processor_timing():
    p = ProcessorConfig(clock_mhz=166.0, cpi=1.0)
    assert p.insn_ns(166) == pytest.approx(1000.0, rel=1e-6)


def test_bus_beats_per_line():
    b = BusConfig()
    assert b.beats_per_line == 4  # 32-byte line over a 64-bit bus


def test_nodes_must_be_positive():
    with pytest.raises(ConfigError):
        MachineConfig(n_nodes=0).validate()


def test_bad_bus_width():
    cfg = default_config()
    cfg.bus.width_bytes = 7
    with pytest.raises(ConfigError):
        cfg.validate()


def test_line_mismatch_rejected():
    cfg = default_config()
    cfg.l2.line_bytes = 64
    with pytest.raises(ConfigError):
        cfg.validate()


def test_payload_exceeding_packet_rejected():
    """A packet too small for the Basic payload cap is refused."""
    cfg = default_config()
    cfg.network.max_packet_bytes = 88  # 80 payload bytes < MAX_PAYLOAD
    with pytest.raises(ConfigError):
        cfg.validate()


def test_every_config_field_has_a_reader():
    """Every field of every sub-config (``cfg.niu``, ``cfg.firmware``,
    ...) is read as an attribute somewhere in ``src/repro`` outside
    ``common/config.py``, directly or through a property of its own that
    is (``cycle_ns`` reads ``clock_mhz``): a knob the simulator never
    reads changes nothing, yet validates and lands in every metrics
    snapshot."""
    root = Path(repro.__file__).parent
    read = set()
    for path in root.rglob("*.py"):
        if path == root / "common" / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
    config = ast.parse((root / "common" / "config.py").read_text())
    for fn in ast.walk(config):
        if (isinstance(fn, ast.FunctionDef) and fn.name in read
                and any(isinstance(d, ast.Name) and d.id == "property"
                        for d in fn.decorator_list)):
            read |= {node.attr for node in ast.walk(fn)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.value, ast.Name)
                     and node.value.id == "self"}
    cfg = default_config()
    unread = [f"{type(sub).__name__}.{f.name}"
              for sub in (getattr(cfg, top.name)
                          for top in dataclasses.fields(cfg))
              if dataclasses.is_dataclass(sub)
              for f in dataclasses.fields(sub) if f.name not in read]
    assert not unread, f"config fields nothing reads: {unread}"


def test_priorities_minimum_two():
    with pytest.raises(ConfigError):
        NetworkConfig(priorities=1).validate()


def test_queue_depth_power_of_two():
    with pytest.raises(ConfigError):
        NIUConfig(queue_depth=12).validate()


def test_cache_geometry():
    c = CacheConfig()
    assert c.n_lines == 512 * 1024 // 32
    assert c.n_sets * c.ways == c.n_lines
    c.validate()


def test_copy_is_deep():
    cfg = default_config()
    dup = cfg.copy()
    dup.bus.clock_mhz = 100.0
    assert cfg.bus.clock_mhz == 66.0


def test_copy_with_override():
    cfg = default_config()
    dup = cfg.copy(n_nodes=8)
    assert dup.n_nodes == 8
    assert cfg.n_nodes == 2


def test_describe_flat():
    d = default_config().describe()
    assert d["bus"]["clock_mhz"] == 66.0
    assert d["network"]["radix"] == 4


def test_firmware_costs_nonnegative():
    cfg = default_config()
    cfg.firmware.dispatch_insns = -1
    with pytest.raises(ConfigError):
        cfg.validate()


def test_int_durations_run_exactly_as_floats():
    """Timing fields, stalls and sleeps given as ints are coerced once, at
    their boundary: the kernel only sleeps on floats, and an int
    config must describe itself and run exactly like the float one."""
    import json

    import repro
    from repro.bench.harness import comparable
    from repro.faults import FaultPlan, SpStall
    from repro.mp import BasicPort, vdst_for

    def run(num):
        cfg = default_config(n_nodes=4)
        cfg.network.switch_latency_ns = num(40)
        cfg.network.combine_window_ns = num(80)
        cfg.faults = FaultPlan(seed=1, sp_stalls=[
            SpStall(node=1, time_ns=1_000.0, duration_ns=num(5_000))])
        machine = repro.StarTVoyager(cfg)
        ports = [BasicPort(machine.node(n), 0, 0) for n in range(4)]

        def prog(api, me):
            peer = (me + 2) % 4
            yield from api.sleep(num(50_000))
            yield from ports[me].send(api, vdst_for(peer, 0), bytes([me]))
            return (yield from ports[me].recv(api))

        procs = [machine.spawn(n, prog, n) for n in range(4)]
        results = machine.run_all(procs, limit=1e9)
        snapshot = comparable(json.loads(json.dumps(machine.metrics(),
                                                    default=repr)))
        return json.dumps(snapshot, sort_keys=True), results, machine.now

    as_int, as_float = run(int), run(float)
    assert as_int == as_float
    assert as_float[2] > 50_000
