"""Planning SHARP-style reduction trees onto the fat tree.

A sync group's combining tree is a *physical* subtree of the folded
butterfly: every member's leaf switch, the ancestors up to one chosen
root switch, and the links between them.  The planner picks the root and
emits one :class:`~repro.net.combine.GroupProgram` per participating
switch — which ports contributions arrive on, which up port the combined
packet leaves by, and (implicitly, the same port set) where replies fan
back out.

Root selection mirrors route computation
(:mod:`repro.net.topology`): the root must sit at the lowest level whose
switches cover every member, i.e. level ``m + 1`` where ``m`` is the
highest leaf-digit position on which two members differ.  At that level
``d^(m)`` parallel copies cover the same leaves; the planner picks the
copy-selector digits by a seeded hash of the group id so concurrent
groups spread over the fabric's redundant switches instead of piling
onto copy 0 (the same load-spreading argument as the route hash).

The plan is pure data — nothing here touches a live machine.  The
fabric side (:class:`repro.sync.api.SyncFabric`) loads the programs into
switch combining stages; the tests validate plans directly against the
topology's wiring.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.common.errors import ConfigError
from repro.net.combine import GroupProgram
from repro.net.topology import FatTreeTopology, _digits, _undigits


def _plan_digit(seed: int, gid: int, pos: int, d: int) -> int:
    """Seeded copy-selector digit (same avalanche mix as route spread)."""
    h = (gid * 0x9E3779B1 ^ pos * 0x85EBCA77
         ^ (seed + 1) * 0xC2B2AE3D) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0x165667B1) & 0xFFFFFFFF
    h ^= h >> 16
    return h % d


class SwitchTreePlan:
    """One group's reduction tree: the root and per-switch programs."""

    __slots__ = ("group", "members", "root", "programs")

    def __init__(self, group: int, members: Tuple[int, ...],
                 root: Tuple[int, int],
                 programs: Dict[Tuple[int, int], GroupProgram]) -> None:
        self.group = group
        self.members = members
        #: ``(level, index)`` of the root switch (the combining apex; in
        #: fetch mode also where the group's cells live).
        self.root = root
        self.programs = programs


def plan_group(topo: FatTreeTopology, group: int, members: Iterable[int],
               seed: int = 0) -> SwitchTreePlan:
    """Map one reduction group onto the fat tree.

    ``members`` are node ids; duplicates collapse and order is
    irrelevant (the plan is canonical for a member *set*).  Works for
    any group size >= 1 including non-power-of-two and single-member
    groups — a single member gets a one-switch tree at its leaf switch.
    """
    d = topo.down_degree
    levels = topo.levels
    mlist = sorted(set(members))
    if not mlist:
        raise ConfigError("a sync group needs at least one member")
    for m in mlist:
        if not (0 <= m < topo.n_nodes):
            raise ConfigError(f"group member {m} is not a node "
                              f"(machine has {topo.n_nodes})")
    leaf_digits = {m: _digits(m, d, levels) for m in mlist}
    # root level: one above the highest digit position where members
    # differ (level-r switches cover leaves sharing digits r..levels-1)
    differing = [
        p for p in range(levels)
        if any(leaf_digits[m][p] != leaf_digits[mlist[0]][p] for m in mlist)
    ]
    root_level = (max(differing) + 1) if differing else 1
    # root identity: coverage digits forced by the members, copy-selector
    # digits (positions 0..root_level-2) spread by the seeded hash
    root_digits: List[int] = [0] * (levels - 1)
    sample = leaf_digits[mlist[0]]
    for pos in range(root_level - 1, levels - 1):
        root_digits[pos] = sample[pos + 1]
    for pos in range(root_level - 1):
        root_digits[pos] = _plan_digit(seed, group, pos, d)
    root_index = _undigits(root_digits, d)

    up_ports: Dict[Tuple[int, int], int] = {}
    down_lists: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for m in mlist:
        ld = leaf_digits[m]
        for level in range(1, root_level + 1):
            digs = list(root_digits)
            for pos in range(level - 1, levels - 1):
                digs[pos] = ld[pos + 1]
            key = (level, _undigits(digs, d))
            if level < root_level:
                # ascending via up-port b rewrites digit level-1 to b;
                # landing on the root's copy means b = root digit
                up_ports[key] = d + root_digits[level - 1]
            if level == 1:
                entry = (ld[0], m)
            else:
                # parent's down port toward a level-(level-1) child is
                # the child's copy digit at position level-2, which the
                # coverage rule pins to the member's leaf digit level-1
                entry = (ld[level - 1], None)
            entries = down_lists.setdefault(key, [])
            if entry not in entries:
                entries.append(entry)

    programs = {
        key: GroupProgram(group, up_ports.get(key), tuple(down))
        for key, down in down_lists.items()
    }
    return SwitchTreePlan(group, tuple(mlist), (root_level, root_index),
                          programs)


def validate_plan(topo: FatTreeTopology, plan: SwitchTreePlan) -> None:
    """Check a plan against the wiring (property tests call this).

    Every non-root switch's up port must physically reach the unique
    switch one level up that also carries a program; every down entry
    must connect to the claimed child switch or member leaf; and walking
    up from every member's leaf switch must terminate at the root.
    """
    root_key = plan.root
    if root_key not in plan.programs:
        raise ConfigError(f"plan root {root_key} has no program")
    if plan.programs[root_key].up_port is not None:
        raise ConfigError("root program has an up port")
    for (level, index), prog in plan.programs.items():
        if (level, index) != root_key:
            if prog.up_port is None:
                raise ConfigError(f"non-root sw{level}.{index} lacks an "
                                  "up port")
            parent = topo.up_target(level, index, prog.up_port
                                    - topo.down_degree)
            if parent not in plan.programs:
                raise ConfigError(f"sw{level}.{index} ascends to "
                                  f"unprogrammed {parent}")
        for port, member in prog.down:
            target = topo.down_target(level, index, port)
            if member is not None:
                if target != ("leaf", member, 0):
                    raise ConfigError(
                        f"sw{level}.{index} port {port} reaches {target}, "
                        f"not member {member}")
            else:
                child = (target[1], target[2])
                if target[0] != "switch" or child not in plan.programs:
                    raise ConfigError(
                        f"sw{level}.{index} port {port} reaches {target}, "
                        "not a programmed child switch")
    for m in plan.members:
        level, index = 1, topo.leaf_switch(m)
        seen = 0
        while (level, index) != root_key:
            prog = plan.programs.get((level, index))
            if prog is None or prog.up_port is None:
                raise ConfigError(f"member {m} cannot ascend past "
                                  f"sw{level}.{index}")
            level, index = topo.up_target(level, index,
                                          prog.up_port - topo.down_degree)
            seen += 1
            if seen > topo.levels:
                raise ConfigError(f"member {m}'s ascent does not terminate")


__all__ = ["SwitchTreePlan", "plan_group", "validate_plan"]
