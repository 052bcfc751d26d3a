"""The tracing ring buffer: category filters, bounded capacity."""

from repro.sim.trace import Tracer


def test_disabled_by_default(engine):
    t = Tracer(engine)
    t.emit("bus0", "bus.read", (1, 2))
    assert len(t) == 0


def test_enable_category(engine):
    t = Tracer(engine)
    t.enable("bus")
    t.emit("bus0", "bus.read", "a")
    t.emit("net0", "net.send", "b")  # different category: dropped
    assert len(t) == 1
    assert t.records()[0].kind == "bus.read"


def test_enable_all(engine):
    t = Tracer(engine)
    t.enable("*")
    t.emit("x", "bus.read")
    t.emit("y", "net.send")
    assert len(t) == 2


def test_disable(engine):
    t = Tracer(engine)
    t.enable("bus", "net")
    t.disable("bus")
    t.emit("x", "bus.read")
    t.emit("y", "net.send")
    assert [r.kind for r in t.records()] == ["net.send"]
    t.disable("*")
    t.emit("y", "net.send")
    assert len(t.records()) == 1


def test_filtering(engine):
    t = Tracer(engine)
    t.enable("*")
    t.emit("bus0", "bus.read")
    t.emit("bus0", "bus.write")
    t.emit("bus1", "bus.read")
    assert len(t.records(kind_prefix="bus.read")) == 2
    assert len(t.records(source="bus0")) == 2
    assert len(t.records(kind_prefix="bus.read", source="bus1")) == 1


def test_bounded_capacity(engine):
    t = Tracer(engine, capacity=10)
    t.enable("*")
    for i in range(25):
        t.emit("s", "k.x", i)
    records = t.records()
    assert len(records) == 10
    assert records[0].detail == 15  # oldest entries evicted


def test_timestamps(engine):
    t = Tracer(engine)
    t.enable("k")
    ev = engine.timeout(42.0)
    ev.add_callback(lambda _e: t.emit("s", "k.late"))
    engine.run()
    assert t.records()[0].time == 42.0
    t.clear()
    assert len(t) == 0


def test_bus_category_alone_records_every_transaction(machine2):
    # an empty buffer must not read as "tracing off": with only "bus"
    # enabled, each completed transaction leaves exactly one record
    m = machine2
    m.tracer.enable("bus")

    def prog(api):
        for i in range(4):  # four fresh lines: four cache fills
            yield from api.load_u32(0x1000 + 64 * i)

    m.run_all([m.spawn(0, prog)], limit=1e9)
    txns = sum(m.stats.counter(f"bus{i}.txns").value for i in range(2))
    records = m.tracer.records("bus.")
    assert txns >= 4
    assert len(records) == txns
    assert m.tracer.records("bus.read_line", source="bus0")
