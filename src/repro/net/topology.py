"""Fat-tree topology and source-route computation.

Arctic is a 4x4 packet-routing switch; the MIT network built from it is a
fat tree.  We model the standard folded-butterfly construction: with
switch radix ``r``, down-degree ``d = r/2`` and up-degree ``u = r/2``,
``L = ceil(log_d N)`` switch levels of ``d^(L-1)`` switches each give full
bisection bandwidth.

Identification scheme (base-``d`` digits):

* a leaf is ``L`` digits ``x_{L-1} .. x_0``;
* a level-``i`` switch (``i`` in 1..L) is ``L-1`` digits; its digits at
  positions ``i-1 .. L-2`` equal the *covered subtree's* leaf digits at
  positions ``i .. L-1``; its digits at positions ``0 .. i-2`` select
  which of the ``d^(i-1)`` parallel copies it is (the "fatness").

Edges:

* level-1 switch ``j`` connects down-port ``c`` to leaf
  ``j*d + c``;
* level-``i`` switch ``j`` (``i>1``) connects down-port ``c`` to the
  level-``i-1`` switch whose digits equal ``j`` except digit ``i-2`` is
  ``c``;
* going up, the parent of ``(i, j)`` on up-port ``b`` is the level-``i+1``
  switch whose digits equal ``j`` except digit ``i-1`` is ``b``.

A route from leaf ``s`` to leaf ``t`` ascends to level ``m+1`` (``m`` =
highest differing digit position), choosing up-ports by a deterministic
seeded hash (load spreading), then descends following ``t``'s digits.
Routes are emitted as port lists consumed by the switches (source
routing, exactly as the paper's translation table "specifies the physical
route").
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Tuple

from repro.common.errors import NetworkError


def _digits(value: int, base: int, count: int) -> List[int]:
    out = []
    for _ in range(count):
        out.append(value % base)
        value //= base
    return out


def _undigits(digits: List[int], base: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * base + d
    return value


class FatTreeTopology:
    """Folded-butterfly fat tree: switch identities, wiring, and routes."""

    def __init__(self, n_nodes: int, radix: int = 4, seed: int = 0) -> None:
        if n_nodes < 1:
            raise NetworkError("need at least one node")
        if radix < 2 or radix % 2:
            raise NetworkError("switch radix must be an even integer >= 2")
        self.n_nodes = n_nodes
        self.radix = radix
        self.down_degree = radix // 2
        self.seed = seed
        d = self.down_degree
        # levels needed so that d^L >= n_nodes (min one level)
        levels = 1
        capacity = d
        while capacity < n_nodes:
            levels += 1
            capacity *= d
        self.levels = levels
        self.leaf_slots = capacity
        self.switches_per_level = d ** (levels - 1)

    # -- wiring ------------------------------------------------------------

    def switch_ids(self) -> List[Tuple[int, int]]:
        """All ``(level, index)`` switch identities, level-major order."""
        return [
            (lvl, j)
            for lvl in range(1, self.levels + 1)
            for j in range(self.switches_per_level)
        ]

    def down_target(self, level: int, index: int, port: int) -> Tuple[str, int, int]:
        """What down-port ``port`` of switch ``(level, index)`` connects to.

        Returns ``("leaf", leaf, 0)`` or ``("switch", level-1, index')``
        (the third element of a switch target is its index; for a leaf it
        is unused).
        """
        d = self.down_degree
        self._check_switch(level, index)
        if not (0 <= port < d):
            raise NetworkError(f"down port {port} out of range 0..{d-1}")
        if level == 1:
            return ("leaf", index * d + port, 0)
        digs = _digits(index, d, self.levels - 1)
        digs[level - 2] = port
        return ("switch", level - 1, _undigits(digs, d))

    def up_target(self, level: int, index: int, port: int) -> Tuple[int, int]:
        """Parent ``(level+1, index')`` reached through up-port ``port``."""
        d = self.down_degree
        self._check_switch(level, index)
        if level >= self.levels:
            raise NetworkError(f"level-{level} switches have no parents")
        if not (0 <= port < d):
            raise NetworkError(f"up port {port} out of range 0..{d-1}")
        digs = _digits(index, d, self.levels - 1)
        digs[level - 1] = port
        return (level + 1, _undigits(digs, d))

    def leaf_switch(self, leaf: int) -> int:
        """Index of the level-1 switch a leaf attaches to."""
        self._check_leaf(leaf)
        return leaf // self.down_degree

    def _check_switch(self, level: int, index: int) -> None:
        if not (1 <= level <= self.levels):
            raise NetworkError(f"no switch level {level}")
        if not (0 <= index < self.switches_per_level):
            raise NetworkError(f"no switch index {index} at level {level}")

    def _check_leaf(self, leaf: int) -> None:
        if not (0 <= leaf < self.leaf_slots):
            raise NetworkError(f"leaf {leaf} outside 0..{self.leaf_slots - 1}")

    # -- routing -------------------------------------------------------------

    def _up_choice(self, src: int, dst: int, level: int) -> int:
        """Deterministic, seed-dependent spread of up-traffic over copies."""
        h = (src * 0x9E3779B1 ^ dst * 0x85EBCA77 ^ level * 0xC2B2AE3D
             ^ (self.seed + 1) * 0x27220A95) & 0xFFFFFFFF
        h ^= h >> 13
        h = (h * 0x165667B1) & 0xFFFFFFFF
        h ^= h >> 16
        return h % self.down_degree

    def route(self, src: int, dst: int,
              avoid: Optional[AbstractSet[str]] = None) -> List[int]:
        """Port list from leaf ``src`` to leaf ``dst``.

        Port convention inside a switch: ``0..d-1`` are down ports,
        ``d..2d-1`` are up ports.  The injection hop (node to its level-1
        switch) consumes no digit; the first digit steers the level-1
        switch.

        ``avoid`` names downed links (see :meth:`up_link_name` /
        :meth:`down_link_name` for the naming convention); when given,
        the route searches the fat tree's path diversity — alternative
        up-link copies first, then higher turn levels — for a walk that
        touches none of them (up/down re-routing).  Raises when the
        remaining fabric cannot connect the pair.
        """
        self._check_leaf(src)
        self._check_leaf(dst)
        d = self.down_degree
        if src == dst:
            raise NetworkError("no route from a node to itself")
        sd = _digits(src, d, self.levels)
        td = _digits(dst, d, self.levels)
        # highest differing digit position -> turn at level m+1
        m = max(p for p in range(self.levels) if sd[p] != td[p])
        if not avoid:
            ports: List[int] = []
            for lvl in range(1, m + 1):  # ascend from level lvl to lvl+1
                ports.append(d + self._up_choice(src, dst, lvl))
            for lvl in range(m + 1, 0, -1):  # descend: digit of dst at lvl-1
                ports.append(td[lvl - 1])
            return ports
        if (self.inject_link_name(src) in avoid
                or self.deliver_link_name(dst) in avoid):
            raise NetworkError(
                f"no route {src}->{dst}: an attachment link is down"
            )
        # search turn levels lowest (shortest route) first; every extra
        # level multiplies the number of parallel copies by d
        for turn in range(m + 1, self.levels + 1):
            found = self._search_route(src, dst, td, turn, 1,
                                       self.leaf_switch(src), avoid)
            if found is not None:
                return found
        raise NetworkError(
            f"no route {src}->{dst} avoids the downed links"
        )

    def _search_route(self, src: int, dst: int, td: List[int], turn: int,
                      level: int, index: int,
                      avoid: AbstractSet[str]) -> Optional[List[int]]:
        """DFS over ascent up-link choices with the descent fixed by
        ``dst``'s digits.  Choice order starts at the seeded default hash
        so the fault-free subpaths match normal routing (determinism)."""
        d = self.down_degree
        if level == turn:
            ports: List[int] = []
            lvl, idx = level, index
            while True:
                c = td[lvl - 1]
                if self.down_link_name(lvl, idx, c) in avoid:
                    return None
                ports.append(c)
                target = self.down_target(lvl, idx, c)
                if target[0] == "leaf":
                    return ports if target[1] == dst else None
                _, lvl, idx = target
        base = self._up_choice(src, dst, level)
        for k in range(d):
            b = (base + k) % d
            if self.up_link_name(level, index, b) in avoid:
                continue
            n_level, n_index = self.up_target(level, index, b)
            rest = self._search_route(src, dst, td, turn, n_level, n_index,
                                      avoid)
            if rest is not None:
                return [d + b] + rest
        return None

    # -- link naming (must match ArcticNetwork._build) ---------------------

    def up_link_name(self, level: int, index: int, port: int) -> str:
        """Name of the up-link from switch ``(level, index)`` via ``port``."""
        p_level, p_index = self.up_target(level, index, port)
        return f"sw{level}.{index}->sw{p_level}.{p_index}"

    def down_link_name(self, level: int, index: int, port: int) -> str:
        """Name of the down-link from switch ``(level, index)`` via ``port``."""
        target = self.down_target(level, index, port)
        if target[0] == "leaf":
            return f"sw{level}.{index}->n{target[1]}"
        return f"sw{level}.{index}->sw{target[1]}.{target[2]}"

    def inject_link_name(self, leaf: int) -> str:
        """Name of a node's injection link (node -> level-1 switch)."""
        return f"n{leaf}->sw1.{self.leaf_switch(leaf)}"

    def deliver_link_name(self, leaf: int) -> str:
        """Name of a node's delivery link (level-1 switch -> node)."""
        return f"sw1.{self.leaf_switch(leaf)}->n{leaf}"

    def hop_count(self, src: int, dst: int) -> int:
        """Number of switches a packet traverses."""
        return len(self.route(src, dst))

    def validate_route(self, src: int, dst: int, ports: List[int]) -> bool:
        """Walk ``ports`` through the wiring; True iff it ends at ``dst``.

        Used by the property tests: every emitted route must be accepted
        by the same wiring the switches are built from.
        """
        d = self.down_degree
        level, index = 1, self.leaf_switch(src)
        for i, port in enumerate(ports):
            last = i == len(ports) - 1
            if port >= d:  # ascend
                level, index = self.up_target(level, index, port - d)
            else:  # descend
                target = self.down_target(level, index, port)
                if target[0] == "leaf":
                    return last and target[1] == dst
                _, level, index = target
        return False
