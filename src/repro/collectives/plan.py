"""Topology plans for collectives: spanning trees and exchange schedules.

Plans are *pure data* — tuples of parent links, child lists, and
exchange rounds — so the algorithms can be unit-tested exhaustively
without building a machine.  The binomial tree handles arbitrary (not
just power-of-two) node counts, and non-zero roots are expressed by
rotating "virtual ranks": virtual rank ``v = (r - root) mod n`` so the
root is always virtual 0.

The binomial tree has the property the reduction algorithms rely on for
non-commutative operators: the subtree of virtual rank ``v`` spans the
contiguous virtual range ``[v, v + lowbit(v))``, so folding own-value-
first then children in ascending order reproduces the exact
ascending-rank fold (MPI's canonical reduction order), rotated by
``root`` when ``root != 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import ProgramError

# ----------------------------------------------------------------------
# spanning trees
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TreePlan:
    """One rooted spanning tree over ranks ``0..n-1`` (pure data).

    ``parent[r]`` is ``None`` only at the root; ``children[r]`` lists a
    rank's children in the tree's deterministic fold order (ascending
    virtual rank).
    """

    n: int
    root: int
    kind: str
    parent: Tuple[Optional[int], ...]
    children: Tuple[Tuple[int, ...], ...]

    def validate(self) -> None:
        """Check the plan is a spanning tree rooted at ``root``."""
        if not (0 <= self.root < self.n):
            raise ProgramError(f"root {self.root} outside 0..{self.n - 1}")
        if self.parent[self.root] is not None:
            raise ProgramError("root must have no parent")
        seen = 0
        for r in range(self.n):
            node, hops = r, 0
            while self.parent[node] is not None:
                node = self.parent[node]  # type: ignore[assignment]
                hops += 1
                if hops > self.n:
                    raise ProgramError(f"cycle reached from rank {r}")
            if node != self.root:
                raise ProgramError(f"rank {r} does not reach the root")
            seen += 1
        for r in range(self.n):
            for c in self.children[r]:
                if self.parent[c] != r:
                    raise ProgramError(f"child link {r}->{c} has no parent link")
        if sum(len(c) for c in self.children) != self.n - 1:
            raise ProgramError("tree must have exactly n-1 edges")


def _rotate(
    n: int, root: int, virtual_parent: List[Optional[int]]
) -> Tuple[List[Optional[int]], List[List[int]]]:
    """Map a virtual-rank tree (rooted at virtual 0) back to real ranks."""
    parent: List[Optional[int]] = [None] * n
    children: List[List[int]] = [[] for _ in range(n)]
    for v in range(n):
        r = (v + root) % n
        pv = virtual_parent[v]
        if pv is None:
            continue
        p = (pv + root) % n
        parent[r] = p
        children[p].append(r)
    # fold order: ascending *virtual* rank, which is the append order
    return parent, children


def binomial_tree(n: int, root: int = 0) -> TreePlan:
    """Binomial spanning tree: parent of virtual ``v`` is ``v & (v - 1)``.

    The subtree of virtual rank ``v`` spans the contiguous range
    ``[v, v + lowbit(v))``, which makes own-then-ascending-children folds
    equal to the ascending-virtual-rank fold — the property the reduce
    algorithms need for non-commutative operators.
    """
    if n < 1:
        raise ProgramError(f"tree needs at least one rank, got {n}")
    if not (0 <= root < n):
        raise ProgramError(f"root {root} outside 0..{n - 1}")
    virtual_parent: List[Optional[int]] = [
        None if v == 0 else v & (v - 1) for v in range(n)
    ]
    parent, children = _rotate(n, root, virtual_parent)
    plan = TreePlan(n, root, "binomial", tuple(parent),
                    tuple(tuple(c) for c in children))
    plan.validate()
    return plan


# ----------------------------------------------------------------------
# recursive doubling (allreduce)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RdSchedule:
    """Recursive-doubling allreduce schedule for ``n`` ranks (pure data).

    ``pow2`` is the largest power of two ``<= n``.  Ranks ``>= pow2``
    ("extras") fold their value into partner ``r - pow2`` up front and
    receive the final result at the end; the remaining ``pow2`` ranks
    run ``log2(pow2)`` pairwise-exchange rounds, partner ``r ^ d``.
    """

    n: int
    pow2: int
    #: per-round exchange distance: 1, 2, 4, ... pow2/2.
    rounds: Tuple[int, ...]

    def is_extra(self, rank: int) -> bool:
        """True for ranks folded in before the exchange rounds."""
        return rank >= self.pow2

    def extra_partner(self, rank: int) -> Optional[int]:
        """The extra rank served by ``rank`` (or ``None``)."""
        if rank < self.pow2 and rank + self.pow2 < self.n:
            return rank + self.pow2
        return None

    def partners(self, rank: int) -> Tuple[int, ...]:
        """Exchange partners of a non-extra rank, round by round."""
        if self.is_extra(rank):
            return ()
        return tuple(rank ^ d for d in self.rounds)


def recursive_doubling(n: int) -> RdSchedule:
    """Build the recursive-doubling schedule for ``n`` ranks."""
    if n < 1:
        raise ProgramError(f"schedule needs at least one rank, got {n}")
    pow2 = 1
    while pow2 * 2 <= n:
        pow2 *= 2
    rounds: List[int] = []
    d = 1
    while d < pow2:
        rounds.append(d)
        d *= 2
    return RdSchedule(n, pow2, tuple(rounds))
