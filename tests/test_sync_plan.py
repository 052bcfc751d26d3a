"""Reduction-tree planning (`repro.sync.plan`) against the fat tree.

Every plan is validated structurally (`validate_plan` walks the
topology's wiring), including the awkward shapes the planner must get
right: non-power-of-two member sets, single-member groups, groups that
span only one leaf switch, and machines large enough to need three
switch levels.
"""

import pytest

from repro.common.errors import ConfigError
from repro.net.combine import GroupProgram
from repro.net.topology import FatTreeTopology
from repro.sync.plan import plan_group, validate_plan


def test_single_member_plan_is_one_leaf_switch():
    topo = FatTreeTopology(8, radix=4)
    plan = plan_group(topo, 1, [5])
    assert plan.members == (5,)
    assert plan.root == (1, topo.leaf_switch(5))
    assert set(plan.programs) == {plan.root}
    prog = plan.programs[plan.root]
    assert prog.is_root
    assert prog.down == ((5 % topo.down_degree, 5),)
    validate_plan(topo, plan)


def test_same_leaf_members_root_at_their_leaf_switch():
    topo = FatTreeTopology(8, radix=4)
    plan = plan_group(topo, 1, [2, 3])  # both under leaf switch 1
    assert plan.root == (1, 1)
    assert set(plan.programs) == {(1, 1)}
    validate_plan(topo, plan)


def test_full_machine_plan_roots_at_top_level():
    topo = FatTreeTopology(8, radix=4)
    plan = plan_group(topo, 1, range(8))
    assert plan.root[0] == topo.levels
    # every leaf switch participates
    leaf_keys = {k for k in plan.programs if k[0] == 1}
    assert leaf_keys == {(1, i) for i in range(4)}
    validate_plan(topo, plan)


def test_non_power_of_two_members_validate():
    topo = FatTreeTopology(16, radix=4)
    for members in ([0, 3, 7], [1, 2, 5, 9, 14], list(range(11))):
        plan = plan_group(topo, 2, members)
        assert plan.members == tuple(sorted(members))
        validate_plan(topo, plan)


def test_plan_is_canonical_for_a_member_set():
    topo = FatTreeTopology(16, radix=4)
    a = plan_group(topo, 7, [9, 2, 5, 2, 14])
    b = plan_group(topo, 7, [14, 5, 9, 2])
    def fields(plan):
        return (plan.group, plan.members, plan.root,
                {at: (prog.up_port, prog.down)
                 for at, prog in plan.programs.items()})

    assert fields(a) == fields(b)


def test_plan_rejects_bad_members():
    topo = FatTreeTopology(8, radix=4)
    with pytest.raises(ConfigError):
        plan_group(topo, 1, [])
    with pytest.raises(ConfigError):
        plan_group(topo, 1, [8])
    with pytest.raises(ConfigError):
        plan_group(topo, 1, [-1])


def test_concurrent_groups_spread_over_redundant_roots():
    """Full-machine groups pick their root copy by a seeded hash of the
    group id, so concurrent groups don't all pile onto copy 0."""
    topo = FatTreeTopology(16, radix=4)
    roots = {plan_group(topo, gid, range(16)).root for gid in range(1, 9)}
    assert len(roots) > 1
    # but each (gid, seed) choice is itself deterministic
    assert plan_group(topo, 3, range(16)).root \
        == plan_group(topo, 3, range(16)).root


def test_plan_sweep_validates_across_shapes():
    """Property sweep: every plan is wiring-consistent for a grid of
    machine sizes, radices and member sets."""
    cases = [
        (4, 4), (8, 4), (16, 4), (13, 4), (27, 6), (64, 8), (1024, 8),
    ]
    checked = 0
    for n_nodes, radix in cases:
        topo = FatTreeTopology(n_nodes, radix=radix)
        member_sets = [
            [0],
            [n_nodes - 1],
            list(range(n_nodes)),
            list(range(0, n_nodes, 3)),
            [0, n_nodes // 2, n_nodes - 1],
        ]
        for gid, members in enumerate(member_sets, start=1):
            for seed in (0, 1):
                plan = plan_group(topo, gid, members, seed=seed)
                validate_plan(topo, plan)
                checked += 1
    assert checked == len(cases) * 5 * 2


def test_validate_plan_catches_corruption():
    topo = FatTreeTopology(8, radix=4)
    plan = plan_group(topo, 1, range(8))
    # break a non-root switch's up port
    victim = next(k for k, p in plan.programs.items()
                  if p.up_port is not None)
    good = plan.programs[victim]
    plan.programs[victim] = GroupProgram(good.group, None, good.down)
    with pytest.raises(ConfigError):
        validate_plan(topo, plan)
