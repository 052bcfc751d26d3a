"""The fat-tree topology: wiring consistency and route validity."""

import pytest

from repro.common.errors import NetworkError
from repro.net.topology import FatTreeTopology


def test_two_nodes_single_switch():
    t = FatTreeTopology(2, radix=4)
    assert t.levels == 1
    assert t.switches_per_level == 1
    assert t.leaf_slots == 2
    assert t.route(0, 1) == [1]  # one switch, descend on digit 1
    assert t.hop_count(0, 1) == 1


def test_four_nodes():
    t = FatTreeTopology(4, radix=4)
    assert t.levels == 2
    assert t.switches_per_level == 2
    # same level-1 switch: one hop
    assert t.hop_count(0, 1) == 1
    # across the tree: up one, down two
    assert t.hop_count(0, 3) == 3


def test_sixteen_nodes():
    t = FatTreeTopology(16, radix=4)
    assert t.levels == 4
    assert t.leaf_slots == 16
    assert t.switches_per_level == 8


def test_non_power_padded():
    t = FatTreeTopology(5, radix=4)
    assert t.leaf_slots == 8
    assert t.levels == 3


def test_all_routes_valid_small():
    for n in (2, 3, 4, 6, 8, 16):
        t = FatTreeTopology(n, radix=4, seed=11)
        for s in range(n):
            for d in range(n):
                if s == d:
                    continue
                route = t.route(s, d)
                assert t.validate_route(s, d, route), (n, s, d, route)


def test_route_shape_up_then_down():
    t = FatTreeTopology(8, radix=4)
    for s in range(8):
        for d in range(8):
            if s == d:
                continue
            route = t.route(s, d)
            ups = [p >= t.down_degree for p in route]
            # once a route starts descending it never ascends again
            descending = False
            for up in ups:
                if not up:
                    descending = True
                assert not (descending and up)


def test_self_route_rejected():
    t = FatTreeTopology(4)
    with pytest.raises(NetworkError):
        t.route(2, 2)


def test_leaf_bounds():
    t = FatTreeTopology(4)
    with pytest.raises(NetworkError):
        t.route(0, 99)


def test_leaf_switch_assignment():
    t = FatTreeTopology(8, radix=4)
    assert t.leaf_switch(0) == 0
    assert t.leaf_switch(1) == 0
    assert t.leaf_switch(2) == 1
    assert t.leaf_switch(7) == 3


def test_up_down_wiring_inverse():
    t = FatTreeTopology(16, radix=4)
    for level in range(1, t.levels):
        for index in range(t.switches_per_level):
            for b in range(t.down_degree):
                p_level, p_index = t.up_target(level, index, b)
                # the parent's down port equal to the child's digit leads back
                d = t.down_degree
                child_digit = (index // (d ** (level - 1))) % d
                kind, back_level, back_index = t.down_target(
                    p_level, p_index, child_digit)
                assert kind == "switch"
                assert (back_level, back_index) == (level, index)


def test_level1_down_reaches_leaves():
    t = FatTreeTopology(8, radix=4)
    for index in range(t.switches_per_level):
        for c in range(t.down_degree):
            kind, leaf, _ = t.down_target(1, index, c)
            assert kind == "leaf"
            assert t.leaf_switch(leaf) == index


def test_top_level_has_no_parents():
    t = FatTreeTopology(4, radix=4)
    with pytest.raises(NetworkError):
        t.up_target(t.levels, 0, 0)


def test_seed_spreads_up_links():
    # different seeds may pick different up-link copies; both remain valid
    routes = set()
    for seed in range(8):
        t = FatTreeTopology(16, radix=4, seed=seed)
        routes.add(tuple(t.route(0, 15)))
        assert t.validate_route(0, 15, t.route(0, 15))
    assert len(routes) >= 2  # the spread actually spreads
