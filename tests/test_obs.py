"""The observability layer: histograms, spans, exporters, shims.

Covers the repro.obs subsystem end to end: log-bucket arithmetic at
power-of-two edges, span nesting and Perfetto rendering, the
schema-versioned metrics snapshot, the deprecation shims left behind by
the API consolidation, and the zero-overhead-when-off guarantee on the
Basic-message hot path.
"""

import json
import warnings

import pytest

import repro
from repro.core.blocktransfer import BlockTransferExperiment
from repro.mp.basic import BasicPort
from repro.niu.niu import vdst_for
from repro.obs import (
    Histogram,
    bucket_bounds,
    bucket_index,
    bucket_mid,
    export_perfetto,
    metrics_snapshot,
    trace_events,
)
from repro.sim.trace import NULL_SPAN


@pytest.fixture
def m2():
    return repro.StarTVoyager(repro.default_config(n_nodes=2))


def _pingpong(machine, repeats=6):
    p0 = BasicPort(machine.node(0), 0, 0)
    p1 = BasicPort(machine.node(1), 0, 0)

    def ping(api):
        for _ in range(repeats):
            yield from p0.send(api, vdst_for(1, 0), b"payload")
            yield from p0.recv(api)

    def pong(api):
        for _ in range(repeats):
            yield from p1.recv(api)
            yield from p1.send(api, vdst_for(0, 0), b"payload")

    machine.run_all([machine.spawn(0, ping), machine.spawn(1, pong)],
                    limit=1e9)


# ----------------------------------------------------------------------
# histogram
# ----------------------------------------------------------------------

def test_bucket_edges_at_powers_of_two():
    # 8 sub-buckets per octave: index(2^k) == 8k exactly
    for k in range(0, 20):
        assert bucket_index(float(2 ** k)) == 8 * k
    lo, hi = bucket_bounds(8)
    assert lo == pytest.approx(2.0)
    assert hi == pytest.approx(2.0 * 2 ** 0.125)
    assert lo < bucket_mid(8) < hi


def test_bucket_width_bounds_relative_error():
    h = Histogram("t")
    for x in (3.0, 100.0, 12345.0, 9.9e6):
        h.add(x)
        # a lone sample's percentile is its bucket mid, clamped to the
        # observed range — within one sub-bucket (~9%) of the true value
        assert h.percentile(50) == pytest.approx(x, rel=0.09)
        h = Histogram("t")


def test_histogram_percentiles_uniform():
    h = Histogram("u")
    for i in range(1, 1001):
        h.add(float(i))
    assert h.n == 1000
    assert h.min == 1.0 and h.max == 1000.0
    assert h.p50 == pytest.approx(500.0, rel=0.10)
    assert h.p90 == pytest.approx(900.0, rel=0.10)
    assert h.p99 == pytest.approx(990.0, rel=0.10)
    # percentiles never escape the observed range
    assert h.min <= h.p50 <= h.p90 <= h.p99 <= h.max


def test_histogram_nonpositive_and_empty():
    h = Histogram("e")
    assert h.percentile(50) == 0.0
    h.add(0.0)
    h.add(-5.0)
    assert h.n == 2
    assert h.percentile(50) <= 0.0
    d = h.to_dict()
    assert d["n"] == 2


def test_histogram_merge():
    a, b = Histogram("a"), Histogram("b")
    for i in range(100):
        a.add(float(i + 1))
        b.add(float(i + 101))
    a.merge(b)
    assert a.n == 200
    assert a.max == 200.0
    assert a.p50 == pytest.approx(100.0, rel=0.10)


def test_accumulator_reports_percentiles(m2):
    acc = m2.stats.accumulator("x_ns")
    for v in (10.0, 20.0, 30.0, 40.0):
        acc.add(v)
    assert acc.p50 == pytest.approx(20.0, rel=0.09)
    assert acc.percentile(100) == pytest.approx(40.0, rel=0.09)


def test_stats_report_includes_min_total_and_empty(m2):
    """The metrics snapshot is the registry's one report: every counter,
    accumulator (min and total included; a registered-but-never-hit one
    shows n == 0) and busy time."""
    m2.stats.counter("hits").incr(3)
    acc = m2.stats.accumulator("seen_ns")
    acc.add(5.0)
    acc.add(15.0)
    m2.stats.accumulator("never_hit_ns")  # registered, no samples
    busy = m2.stats.busy_tracker("unit")

    def prog(api):
        busy.begin()
        yield from api.sleep(40.0)
        busy.end()

    m2.run_until(m2.spawn(0, prog), limit=1e6)
    snap = m2.metrics()
    assert snap["counters"]["hits"] == 3
    assert snap["accumulators"]["seen_ns"]["min"] == 5.0
    assert snap["accumulators"]["seen_ns"]["total"] == 20.0
    assert snap["accumulators"]["seen_ns"]["mean"] == 10.0
    assert snap["accumulators"]["never_hit_ns"]["n"] == 0
    assert snap["busy_ns"]["unit"] == pytest.approx(40.0)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

def test_span_nesting_records_both(m2):
    tr = m2.tracer
    tr.enable("niu")

    def prog(api):
        outer = tr.span("niu.outer", node=0, track="t")
        yield from api.compute(100)
        inner = tr.span("niu.inner", node=0, track="t")
        yield from api.compute(100)
        inner.end()
        outer.end()

    m2.run_until(m2.spawn(0, prog))
    spans = tr.spans(kind_prefix="niu.")
    kinds = [s.kind for s in spans]
    assert kinds == ["niu.outer", "niu.inner"]
    outer, inner = spans[0], spans[1]
    assert outer.start <= inner.start and inner.end <= outer.end


def test_span_category_filter(m2):
    tr = m2.tracer
    tr.enable("niu")
    assert tr.span("net.something") is NULL_SPAN
    s = tr.span("niu.something")
    assert s is not NULL_SPAN
    s.end()


def test_machine_traffic_produces_spans(m2):
    m2.obs.enable("niu", "sp", "net")
    # a block transfer exercises every layer, including sP firmware
    BlockTransferExperiment(m2).run(3, 1024)
    assert m2.tracer.spans(kind_prefix="niu.tx")
    assert m2.tracer.spans(kind_prefix="niu.rx")
    assert m2.tracer.spans(kind_prefix="sp.")
    assert m2.tracer.spans(kind_prefix="net.inject")


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------

def test_metrics_snapshot_schema(m2):
    _pingpong(m2)
    snap = metrics_snapshot(m2)
    assert snap["schema"] == "startv.metrics"
    assert snap["schema_version"] == 4
    assert snap["n_nodes"] == 2
    assert "shards" not in snap
    assert snap["sim"]["events_executed"] > 0
    assert snap["counters"]["ctrl0.msgs_sent"] >= 6
    lat = snap["accumulators"]["net.latency_ns"]
    for key in ("n", "mean", "min", "max", "p50", "p90", "p99", "p999",
                "stddev"):
        assert key in lat
    # v4: the traffic SLO section exists and is empty when no
    # repro.traffic application ran
    assert snap["traffic"] == {}
    assert set(snap["occupancy"]) == {"0", "1"}
    # v3: the directory section always exists; a messaging-only run has
    # zero protocol traffic and no sharer-occupancy samples
    directory = snap["directory"]
    assert directory["invalidations_sent"] == 0
    assert directory["forwards"] == 0
    assert directory["ack_rounds"] == 0
    assert directory["sharer_occupancy"] is None
    json.dumps(snap)  # JSON-clean without coercion


def test_perfetto_export_valid_json(m2, tmp_path):
    m2.obs.enable("ap", "sp", "niu", "net")
    BlockTransferExperiment(m2).run(3, 1024)
    path = str(tmp_path / "trace.json")
    m2.obs.export_perfetto(path)
    doc = json.loads(open(path).read())
    events = doc["traceEvents"]
    assert events, "trace must not be empty"
    # metadata first, then monotonically sorted timestamps
    ts = [e["ts"] for e in events if e.get("ph") != "M"]
    assert ts == sorted(ts)
    # per-node aP/sP/queue tracks announced as thread metadata
    tracks = {(e["pid"], e["args"]["name"]) for e in events
              if e.get("ph") == "M" and e["name"] == "thread_name"}
    names0 = {name for pid, name in tracks if pid == 0}
    assert "aP" in names0 and "sP" in names0
    assert any(n.startswith("txq") for n in names0)
    durations = [e for e in events if e.get("ph") == "X"]
    assert durations and all(e["dur"] >= 0 for e in durations)


def test_trace_events_without_file(m2):
    m2.obs.enable("niu")
    _pingpong(m2)
    events = trace_events(m2)
    assert any(e.get("ph") == "X" for e in events)
    doc = export_perfetto(m2)
    assert doc["otherData"]["schema"] == "startv.trace"


def test_queue_sampler_counters(m2):
    m2.obs.enable("niu")
    sampler = m2.obs.start_sampler(period_ns=200.0)
    _pingpong(m2)
    m2.obs.stop_samplers()
    series = sampler.series("txq0.depth", node=0)
    assert series, "sampler must record tx queue depth"
    assert all(v >= 0 for _t, v in series)


# ----------------------------------------------------------------------
# finished deprecations
# ----------------------------------------------------------------------

def test_machine_report_removed(m2):
    # the deprecation cycle is over: metrics() is the snapshot, and no
    # second flat view is left on the machine or the registry
    assert not hasattr(m2, "report")
    assert not hasattr(m2.stats, "report")


def test_machine_occupancies_removed(m2):
    def prog(api):
        yield from api.compute(1000)

    m2.run_until(m2.spawn(0, prog))
    assert not hasattr(m2, "occupancies")
    occ = m2.metrics(include_config=False)["occupancy"]
    assert occ["0"]["ap"] > 0.0


def test_ctor_kwargs_removed():
    # the deprecated loose kwargs are gone: MachineConfig owns the fields
    with pytest.raises(TypeError):
        repro.StarTVoyager(repro.default_config(n_nodes=2),
                           install_firmware=False)


def test_config_fields_replace_ctor_kwargs():
    cfg = repro.default_config(n_nodes=2)
    cfg.install_firmware = False
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        m = repro.StarTVoyager(cfg)  # no warning on the new spelling
    assert not m.node(0).sp._handlers


def test_scoma_home_of_validated():
    from repro.common.errors import ConfigError
    cfg = repro.default_config(n_nodes=2)
    cfg.scoma_home_of = [0, 1, 99]
    with pytest.raises(ConfigError):
        cfg.validate()


# ----------------------------------------------------------------------
# zero overhead when off
# ----------------------------------------------------------------------

def test_tracing_off_allocates_no_records(m2):
    assert m2.tracer.active is False
    _pingpong(m2)
    # hot paths ran messages end to end without creating a single record
    assert m2.tracer.spans() == []
    assert m2.tracer.span("niu.tx") is NULL_SPAN


def test_disable_restores_null_path(m2):
    m2.obs.enable("niu")
    assert m2.tracer.active is True
    m2.obs.disable("*")
    assert m2.tracer.active is False
    _pingpong(m2)
    assert m2.tracer.spans() == []
