"""Topology plans for collectives: spanning trees and exchange schedules.

Plans are *pure data* — tuples of parent links, child lists, and
exchange rounds — so the algorithms can be unit-tested exhaustively
without building a machine.  The binomial tree handles arbitrary (not
just power-of-two) node counts and is always rooted at rank 0: the
machine builds one at assembly, the sP firmware image installs it, and
MiniMPI's ``tree`` and ``nic`` algorithms both read that one plan.
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
    """One spanning tree over ranks ``0..n-1``, rooted at rank 0 (pure
    data).

    ``parent[r]`` is ``None`` only at rank 0; ``children[r]`` lists a
    rank's children in ascending order.
    """

    n: int
    parent: Tuple[Optional[int], ...]
    children: Tuple[Tuple[int, ...], ...]

    def validate(self) -> None:
        """Check the plan is a spanning tree rooted at rank 0."""
        if self.parent[0] is not None:
            raise ProgramError("rank 0 must have no parent")
        for r in range(self.n):
            node, hops = r, 0
            while self.parent[node] is not None:
                node = self.parent[node]  # type: ignore[assignment]
                hops += 1
                if hops > self.n:
                    raise ProgramError(f"cycle reached from rank {r}")
            if node != 0:
                raise ProgramError(f"rank {r} does not reach rank 0")
        for r in range(self.n):
            for c in self.children[r]:
                if self.parent[c] != r:
                    raise ProgramError(f"child link {r}->{c} has no parent link")
        if sum(len(c) for c in self.children) != self.n - 1:
            raise ProgramError("tree must have exactly n-1 edges")


def binomial_tree(n: int) -> TreePlan:
    """Binomial spanning tree rooted at rank 0: parent of ``r`` is
    ``r & (r - 1)``, so the critical path is the largest popcount of a
    rank, O(log n)."""
    if n < 1:
        raise ProgramError(f"tree needs at least one rank, got {n}")
    parent: List[Optional[int]] = [None] + [r & (r - 1) for r in range(1, n)]
    children: List[List[int]] = [[] for _ in range(n)]
    for r in range(1, n):
        children[parent[r]].append(r)  # type: ignore[index]
    plan = TreePlan(n, tuple(parent), tuple(tuple(c) for c in children))
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
