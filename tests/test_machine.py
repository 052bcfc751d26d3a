"""Cluster assembly: construction, translation install, execution."""

import pytest

import repro
from repro.niu.niu import SP_PROTOCOL_QUEUE, SP_SERVICE_QUEUE, vdst_for
from repro.net.packet import PRIORITY_HIGH, PRIORITY_LOW


def test_single_node_has_no_network():
    m = repro.StarTVoyager(1)
    assert m.network is None
    assert len(m.nodes) == 1


def test_int_shorthand():
    m = repro.StarTVoyager(4)
    assert m.config.n_nodes == 4
    assert len(m.nodes) == 4


def test_default_constructor():
    m = repro.StarTVoyager()
    assert m.config.n_nodes == 2


def test_translation_tables_installed():
    m = repro.StarTVoyager(3)
    for node in m.nodes:
        for dst in range(3):
            e = node.ctrl.table.lookup(vdst_for(dst, 0))
            assert (e.dst_node, e.dst_queue) == (dst, 0)
            # protocol queues ride the high priority
            ep = node.ctrl.table.lookup(vdst_for(dst, SP_PROTOCOL_QUEUE))
            assert ep.priority == PRIORITY_HIGH
            es = node.ctrl.table.lookup(vdst_for(dst, SP_SERVICE_QUEUE))
            assert es.priority == PRIORITY_HIGH
            e0 = node.ctrl.table.lookup(vdst_for(dst, 1))
            assert e0.priority == PRIORITY_LOW


def test_spawn_and_run_all():
    m = repro.StarTVoyager(2)

    def prog(api, n):
        yield from api.compute(n)
        return api.node_id * 100 + n

    results = m.run_all([m.spawn(0, prog, 5), m.spawn(1, prog, 7)])
    assert results == [5, 107]


def test_run_until_limit():
    m = repro.StarTVoyager(1)

    def forever(api):
        while True:
            yield from api.compute(1000)

    m.spawn(0, forever)
    t = m.run(until=50_000.0)
    assert t == 50_000.0
    assert m.now == 50_000.0


def test_occupancy_in_metrics():
    m = repro.StarTVoyager(2)

    def prog(api):
        yield from api.compute(10_000)

    m.run_until(m.spawn(0, prog))
    occ = m.metrics()["occupancy"]["0"]
    assert 0.0 < occ["ap"] <= 1.0
    assert occ["sp"] >= 0.0


def test_metrics_contains_bus_stats():
    m = repro.StarTVoyager(2)

    def prog(api):
        yield from api.store(0x100, b"x" * 8)

    m.run_until(m.spawn(0, prog))
    snap = m.metrics()
    assert snap["schema"] == "startv.metrics"
    assert snap["counters"].get("bus0.txns", 0) >= 1


def test_invalid_config_rejected():
    cfg = repro.default_config()
    cfg.n_nodes = 0
    from repro.common.errors import ConfigError
    with pytest.raises(ConfigError):
        repro.StarTVoyager(cfg)


def test_sixteen_node_machine_end_to_end():
    """The vdst convention's full scale: 16 nodes, fat tree of 32
    switches, an MPI allreduce across all of them."""
    from repro.lib.mpi import MiniMPI

    m = repro.StarTVoyager(16)
    assert m.network.topology.levels == 4
    mpi = MiniMPI(m)

    def worker(api, rank):
        comm = mpi.rank(rank)
        total = yield from comm.allreduce(api, rank + 1)
        return total

    procs = [m.spawn(n, worker, n) for n in range(16)]
    results = m.run_all(procs, limit=1e10)
    assert results == [sum(range(1, 17))] * 16


def test_seventeen_nodes_skips_default_tables():
    """Beyond 16 nodes the byte-vdst convention cannot cover the
    namespace; the machine builds but leaves translation to software."""
    m = repro.StarTVoyager(17)
    assert len(m.nodes) == 17
    from repro.common.errors import TranslationError
    with pytest.raises(TranslationError):
        m.node(0).ctrl.table.lookup(0)
