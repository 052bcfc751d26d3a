"""Shared-memory workloads over the directory protocol, at scale.

The tentpole acceptance tests: real programs (parallel BFS, a striped
shared hash table, the sharing-pattern kernels) running on 16-node
machines with every runtime sanitizer installed — each S-COMA line
migration, invalidation round, and writeback is machine-checked against
the protocol tables while the workload checks its own answer.
"""

import pytest

import repro
from repro.shm.workloads import (
    SHARING_PATTERNS,
    UNVISITED,
    hash_keys_for_rank,
    hash_value_of,
    make_graph,
    pattern_ns_per_access,
    sequential_bfs,
    vertex_slices,
)


def _config(n, sanitize="all"):
    cfg = repro.default_config(n_nodes=n)
    cfg.sanitize = sanitize
    return cfg


# ----------------------------------------------------------------------
# workload building blocks (pure, no machine)
# ----------------------------------------------------------------------

def test_make_graph_deterministic_and_connected():
    a = make_graph(64, 2, seed=5)
    b = make_graph(64, 2, seed=5)
    assert a == b
    assert a != make_graph(64, 2, seed=6)
    dist = sequential_bfs(a)
    assert all(d != UNVISITED for d in dist)  # backbone connects everything
    # undirected: every edge exists both ways
    for v, neighbors in enumerate(a):
        for u in neighbors:
            assert v in a[u]


def test_sequential_bfs_reference():
    #   0 - 1 - 2
    #    \-3
    adj = [[1, 3], [0, 2], [1], [0]]
    assert sequential_bfs(adj) == [0, 1, 2, 1]


def test_vertex_slices_cover_exactly():
    slices = vertex_slices(10, 4)
    assert [len(s) for s in slices] == [3, 3, 2, 2]
    flat = [v for s in slices for v in s]
    assert flat == list(range(10))


def test_hash_key_spaces_disjoint():
    seen = set()
    for rank in range(16):
        keys = hash_keys_for_rank(rank, 8)
        assert 0 not in keys
        assert not seen.intersection(keys)
        seen.update(keys)
        assert all(hash_value_of(k) == (k * 7 + 3) & 0xFFFFFFFF
                   for k in keys)


def test_pattern_aggregate():
    out = {0: (4, 1000.0), 1: (4, 3000.0)}
    assert pattern_ns_per_access(out) == 500.0
    assert pattern_ns_per_access({}) == 0.0


# ----------------------------------------------------------------------
# the 16-node acceptance runs (sanitizers on)
# ----------------------------------------------------------------------

def test_graph_traversal_16_nodes_sanitized():
    """Parallel BFS at 16 nodes: the distance array a parallel traversal
    produces over migrating/invalidating lines equals the sequential
    reference — with every protocol transition machine-checked."""
    run = repro.run(repro.scenario("shm_graph", n_vertices=96),
                    config=_config(16))
    result = run.results[0]
    assert result["bfs_ok"], result
    assert result["levels"] >= 2  # a real multi-level traversal


def test_shared_hash_table_16_nodes_sanitized():
    """Striped-lock hash table at 16 nodes: every rank's inserts land
    and every key reads back its value through the coherence protocol."""
    run = repro.run(
        repro.scenario("shm_hash", keys_per_rank=2, n_buckets=64,
                       stripes=8),
        config=_config(16))
    result = run.results[0]
    assert len(result["inserted"]) == 16
    assert all(result["inserted"].values()), result
    assert len(result["found"]) == 16
    assert all(result["found"].values()), result


def test_hash_table_endpoint_locks_small():
    """The endpoint-mode lock path still works at small scale (it is the
    fallback when no switch fabric exists)."""
    run = repro.run(
        repro.scenario("shm_hash", keys_per_rank=2, n_buckets=32,
                       lock_mode="endpoint"),
        config=_config(4))
    result = run.results[0]
    assert all(result["inserted"].values())
    assert all(result["found"].values())


@pytest.mark.parametrize("pattern", SHARING_PATTERNS)
def test_sharing_patterns_sanitized(pattern):
    """Each sharing-pattern kernel completes under full sanitizing and
    reports a positive ns-per-access."""
    run = repro.run(repro.scenario("shm_patterns", pattern=pattern,
                                   rounds=3),
                    config=_config(4))
    result = run.results[0]
    assert result["ranks"] == 4
    assert result["ns_per_access"] > 0


def test_pattern_ordering_private_cheapest():
    """The sweep's physical sanity check: uncontended private lines are
    far cheaper per access than the all-writers hotspot."""
    cost = {}
    for pattern in ("private", "hotspot"):
        run = repro.run(
            repro.scenario("shm_patterns", pattern=pattern, rounds=3),
            config=_config(4, sanitize=""))
        cost[pattern] = run.results[0]["ns_per_access"]
    assert cost["private"] * 3 < cost["hotspot"]


def test_private_pattern_lines_homed_at_their_rank():
    """Each rank's ``private`` line is homed at the rank itself (not in
    node 0's first page), so the kernel runs without directory traffic."""
    from repro.shm.scoma import ScomaRegion
    from repro.shm.workloads import private_offset

    n = 16
    region = ScomaRegion(repro.StarTVoyager(repro.default_config(n_nodes=n)))
    offsets = [private_offset(region, rank) for rank in range(n)]
    assert 0 not in offsets and len(set(offsets)) == n
    assert [region.home_of(off) for off in offsets] == list(range(n))
    run = repro.run(repro.scenario("shm_patterns", pattern="private",
                                   rounds=3),
                    config=_config(n, sanitize=""))
    directory = run.snapshot["directory"]
    assert directory["forwards"] == 0
    assert directory["invalidations_sent"] == 0
