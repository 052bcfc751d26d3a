"""The tracing ring buffer: category filters, bounded capacity."""

from repro.sim.trace import Tracer


def test_disabled_by_default(engine):
    t = Tracer(engine)
    t.instant("bus.read", source="bus0", addr=1)
    with t.span("bus.write"):
        pass
    assert t.spans() == []


def test_enable_category(engine):
    t = Tracer(engine)
    t.enable("bus")
    t.instant("bus.read", source="bus0")
    t.instant("net.send", source="net0")  # different category: dropped
    assert [r.kind for r in t.spans()] == ["bus.read"]


def test_enable_all(engine):
    t = Tracer(engine)
    t.enable("*")
    t.instant("bus.read")
    t.span("net.send").end()
    assert len(t.spans()) == 2


def test_disable(engine):
    t = Tracer(engine)
    t.enable("bus", "net")
    t.disable("bus")
    t.instant("bus.read")
    t.instant("net.send")
    assert [r.kind for r in t.spans()] == ["net.send"]
    t.disable("*")
    assert t.active is False
    t.instant("net.send")
    assert len(t.spans()) == 1


def test_filtering(engine):
    t = Tracer(engine)
    t.enable("*")
    t.instant("bus.read", node=0)
    t.instant("bus.write", node=0)
    t.instant("bus.read", node=1)
    assert len(t.spans(kind_prefix="bus.read")) == 2
    assert len(t.spans(node=0)) == 2
    assert len(t.spans(kind_prefix="bus.read", node=1)) == 1


def test_bounded_capacity(engine):
    t = Tracer(engine, capacity=10)
    t.enable("*")
    for i in range(25):
        t.instant("k.x", i=i)
    records = t.spans()
    assert len(records) == 10
    assert dict(records[0].args)["i"] == 15  # oldest entries evicted


def test_timestamps(engine):
    t = Tracer(engine)
    t.enable("k")
    span = t.span("k.wait")
    ev = engine.timeout(42.0)
    ev.add_callback(lambda _e: (t.instant("k.late"), span.end()))
    engine.run()
    late, wait = t.spans("k.late")[0], t.spans("k.wait")[0]
    assert late.start == late.end == 42.0
    assert (wait.start, wait.end) == (0.0, 42.0)
    t.clear()
    assert t.spans() == []


def test_bus_category_alone_records_every_transaction(machine2):
    # with only "bus" enabled, each completed transaction leaves exactly
    # one instant (an empty buffer must not read as "tracing off")
    m = machine2
    m.tracer.enable("bus")

    def prog(api):
        for i in range(4):  # four fresh lines: four cache fills
            yield from api.load_u32(0x1000 + 64 * i)

    m.run_all([m.spawn(0, prog)], limit=1e9)
    txns = sum(m.stats.counter(f"bus{i}.txns").value for i in range(2))
    records = m.tracer.spans("bus.")
    assert txns >= 4
    assert len(records) == txns
    assert all(r.start == r.end for r in records)
    assert [r for r in m.tracer.spans("bus.read_line") if r.source == "bus0"]


def test_span_as_a_context_manager_records_its_extent(engine):
    t = Tracer(engine)
    t.enable("bus")

    def prog():
        with t.span("bus.write", source="bus0"):
            yield 7.0

    engine.run_until_triggered(engine.process(prog()))
    (rec,) = t.spans()
    assert (rec.kind, rec.start, rec.end) == ("bus.write", 0.0, 7.0)
