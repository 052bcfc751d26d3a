"""Load generation (`repro.traffic.load`): the determinism contract.

Every schedule must depend only on ``(seed, node, params)`` — that is
what makes the traffic workloads byte-identical across ``--jobs``
counts — plus the statistical sanity of each arrival shape.
"""

import statistics

import pytest

from repro.common.errors import ConfigError
from repro.traffic.load import (
    MmppArrivals,
    PoissonArrivals,
    TraceRecord,
    ZipfKeys,
    dump_trace,
    load_trace,
    make_kv_trace,
    node_rng,
    node_slice,
)


def test_poisson_schedule_deterministic_per_seed_and_node():
    a = PoissonArrivals(100_000.0, seed=7, node=3).schedule(50)
    b = PoissonArrivals(100_000.0, seed=7, node=3).schedule(50)
    assert a == b
    assert PoissonArrivals(100_000.0, seed=8, node=3).schedule(50) != a
    assert PoissonArrivals(100_000.0, seed=7, node=4).schedule(50) != a


def test_poisson_schedule_ascending_with_mean_gap():
    rate = 200_000.0
    sched = PoissonArrivals(rate, seed=1, node=0).schedule(400)
    assert all(t1 > t0 for t0, t1 in zip(sched, sched[1:]))
    assert sched[0] >= 0.0
    mean_gap = sched[-1] / len(sched)
    # exponential gaps: the empirical mean sits near 1e9/rate
    assert 0.5 * 1e9 / rate < mean_gap < 2.0 * 1e9 / rate


def test_poisson_start_offset():
    sched = PoissonArrivals(100_000.0, seed=1, start_ns=5_000.0).schedule(5)
    assert sched[0] > 5_000.0


def test_mmpp_deterministic_and_burstier_than_poisson():
    m = MmppArrivals(100_000.0, seed=3, node=1, burst_factor=10.0)
    sched = m.schedule(600)
    assert sched == MmppArrivals(100_000.0, seed=3, node=1,
                                 burst_factor=10.0).schedule(600)
    assert all(t1 > t0 for t0, t1 in zip(sched, sched[1:]))
    # burstiness: the squared coefficient of variation of the
    # inter-arrival gaps must exceed the Poisson baseline (CV^2 = 1)
    def cv2(times):
        gaps = [t1 - t0 for t0, t1 in zip(times, times[1:])]
        mean = statistics.fmean(gaps)
        return statistics.pvariance(gaps) / (mean * mean)

    poisson = PoissonArrivals(100_000.0, seed=3, node=1).schedule(600)
    assert cv2(sched) > 1.3 * cv2(poisson)


def test_arrival_parameter_validation():
    with pytest.raises(ConfigError):
        PoissonArrivals(0.0)
    with pytest.raises(ConfigError):
        MmppArrivals(100.0, burst_factor=0.5)
    with pytest.raises(ConfigError):
        MmppArrivals(100.0, quiet_ns=0.0)


def test_zipf_keys_deterministic_and_skewed():
    draws_a = [ZipfKeys(64, skew=1.1, seed=5, node=2).draw()
               for _ in range(1)]
    keys = ZipfKeys(64, skew=1.1, seed=5, node=2)
    draws = [keys.draw() for _ in range(2000)]
    again = ZipfKeys(64, skew=1.1, seed=5, node=2)
    assert [again.draw() for _ in range(2000)] == draws
    assert all(0 <= k < 64 for k in draws)
    # key 0 is the hottest rank; with skew 1.1 it must dominate the tail
    hot = draws.count(0)
    assert hot > draws.count(32) and hot > len(draws) // 20
    del draws_a


def test_zipf_zero_skew_is_roughly_uniform():
    keys = ZipfKeys(8, skew=0.0, seed=1)
    draws = [keys.draw() for _ in range(4000)]
    counts = [draws.count(k) for k in range(8)]
    assert min(counts) > 300  # uniform expectation is 500 each


def test_make_kv_trace_sorted_sliced_and_op_mixed():
    trace = make_kv_trace(4, 32, 100_000.0, seed=9, put_fraction=0.5,
                          range_fraction=0.25, value_bytes=16)
    assert len(trace) == 4 * 32
    assert trace == sorted(trace, key=lambda r: (r.time_ns, r.node))
    ops = {r.op for r in trace}
    assert ops == {"get", "put", "range"}
    assert all(r.size == 16 for r in trace if r.op == "put")
    assert all(r.size == 0 for r in trace if r.op != "put")
    for node in range(4):
        sub = node_slice(trace, node)
        assert len(sub) == 32
        assert all(r.node == node for r in sub)
        assert sub == sorted(sub, key=lambda r: r.time_ns)


def test_make_kv_trace_seed_separates_runs():
    a = make_kv_trace(4, 16, 100_000.0, seed=0)
    assert make_kv_trace(4, 16, 100_000.0, seed=0) == a
    assert make_kv_trace(4, 16, 100_000.0, seed=1) != a
    # mmpp process draws a different (still deterministic) schedule
    m = make_kv_trace(4, 16, 100_000.0, seed=0, process="mmpp")
    assert m != a
    assert make_kv_trace(4, 16, 100_000.0, seed=0, process="mmpp") == m


def test_make_kv_trace_validation():
    with pytest.raises(ConfigError):
        make_kv_trace(2, 4, 1000.0, put_fraction=0.8, range_fraction=0.4)
    with pytest.raises(ConfigError):
        make_kv_trace(2, 4, 1000.0, process="bogus")


def test_trace_roundtrip():
    trace = make_kv_trace(3, 8, 50_000.0, seed=2, put_fraction=0.5)
    assert load_trace(dump_trace(trace)) == trace
    assert load_trace("") == []
    assert load_trace('[1.5, 0, "get", 7, 0]\n\n') == [
        TraceRecord(1.5, 0, "get", 7, 0)]


def test_node_rng_salt_separates_streams():
    assert node_rng(1, 2, salt=0).random() != node_rng(1, 2, salt=1).random()
    assert node_rng(1, 2, salt=0).random() == node_rng(1, 2, salt=0).random()
