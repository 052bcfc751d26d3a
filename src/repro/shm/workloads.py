"""Shared-memory workloads over the S-COMA directory protocol.

Real programs — not microbenchmarks — that exercise the home-node MSI
directory (:mod:`repro.firmware.scoma`) with plain cached loads and
stores at cluster scale:

* **parallel graph traversal** — level-synchronous BFS over a seeded
  random graph whose distance array lives in one S-COMA region.  Every
  node owns a vertex slice but relaxes edges anywhere, so frontier lines
  migrate, get invalidated, and end up multi-sharer — the full protocol
  mix.  Cross-node write races are benign by construction (two relaxers
  of the same vertex in the same level store the same distance).
* **shared hash table** — striped-lock open-addressing table, one
  bucket per coherence line, guarded by ticket locks from the
  scalable-synchronization fabric (:mod:`repro.sync`).  Buckets bounce
  between writers (migratory sharing); the stripe locks keep slot
  updates atomic.
* **sharing-pattern kernels** — the four classic access patterns
  (private / migratory / producer-consumer / hotspot) measured as
  ns-per-access, the ``bench_shm`` sweep's inner loops.

Workers take explicit (rank, slice) arguments; the scenarios in
:mod:`repro.scenarios` spawn one per rank.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Generator, List, Sequence

from repro.common.errors import ProgramError

if TYPE_CHECKING:  # pragma: no cover
    from repro.node.ap import ApApi
    from repro.shm.scoma import ScomaRegion
    from repro.sim.events import Event

#: distance value of an unreached vertex (bounds the graph to < 255
#: levels, plenty for the sparse graphs the workloads build).
UNVISITED = 0xFF


# ----------------------------------------------------------------------
# parallel graph traversal (level-synchronous BFS)
# ----------------------------------------------------------------------


def make_graph(n_vertices: int, degree: int, seed: int) -> List[List[int]]:
    """A connected undirected random graph as an adjacency list.

    Deterministic in ``seed``: a Hamiltonian backbone (guarantees
    connectivity, so BFS reaches everything) plus ``degree`` random
    extra edges per vertex.
    """
    rng = random.Random(seed)
    # dicts as insertion-ordered sets keep edge dedup deterministic
    adj: List[Dict[int, None]] = [{} for _ in range(n_vertices)]
    order = list(range(n_vertices))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        adj[a][b] = None
        adj[b][a] = None
    for v in range(n_vertices):
        for _ in range(degree):
            u = rng.randrange(n_vertices)
            if u != v:
                adj[v][u] = None
                adj[u][v] = None
    return [sorted(neighbors) for neighbors in adj]


def sequential_bfs(adj: Sequence[Sequence[int]], root: int = 0) -> List[int]:
    """Reference single-threaded BFS (the parallel result must match)."""
    dist = [UNVISITED] * len(adj)
    dist[root] = 0
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in adj[v]:
                if dist[u] == UNVISITED:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def init_bfs_region(region: "ScomaRegion", n_vertices: int,
                    root: int = 0) -> None:
    """Lay the distance array (1 byte per vertex) at region offset 0."""
    if n_vertices > region.size:
        raise ProgramError(
            f"{n_vertices} vertices exceed the {region.size}-byte region")
    dist = bytearray([UNVISITED]) * n_vertices
    dist[root] = 0
    line_bytes = region.line_bytes
    padded = len(dist) + (-len(dist)) % line_bytes
    dist.extend([UNVISITED] * (padded - len(dist)))
    region.init_data(0, bytes(dist))


def bfs_worker(api: "ApApi", comm, region: "ScomaRegion",
               adj: Sequence[Sequence[int]], lo: int, hi: int,
               out: Dict) -> Generator["Event", None, None]:
    """One rank of the level-synchronous BFS.

    Each level: scan the owned slice ``[lo, hi)`` for frontier vertices
    (distance == level), relax their edges anywhere in the graph, then
    allreduce the cluster-wide update count — zero updates terminates.
    ``out['levels']`` records how many levels ran (diagnostics).
    """
    level = 0
    while level < len(adj):
        updates = 0
        for v in range(lo, hi):
            d = (yield from api.load(region.addr(v), 1))[0]
            if d != level:
                continue
            for u in adj[v]:
                du = (yield from api.load(region.addr(u), 1))[0]
                if du == UNVISITED:
                    # benign cross-rank race: every relaxer of ``u`` in
                    # this level stores the identical value
                    yield from api.store(region.addr(u),
                                         bytes([level + 1]))
                    updates += 1
        total = yield from comm.allreduce(api, updates, op="sum")
        level += 1
        if total == 0:
            break
    out["levels"] = level


def bfs_verify(api: "ApApi", region: "ScomaRegion",
               expected: Sequence[int], out: Dict
               ) -> Generator["Event", None, None]:
    """Coherently read the distance array and diff it against the
    sequential reference (run on one rank after the BFS drains)."""
    bad: List[int] = []
    for v, want in enumerate(expected):
        got = (yield from api.load(region.addr(v), 1))[0]
        if got != want:
            bad.append(v)
    out["bfs_ok"] = not bad
    out["bfs_bad_vertices"] = bad[:8]


def vertex_slices(n_vertices: int, n_ranks: int) -> List[range]:
    """Contiguous per-rank vertex slices (remainder spread left-first)."""
    base, extra = divmod(n_vertices, n_ranks)
    slices, start = [], 0
    for rank in range(n_ranks):
        size = base + (1 if rank < extra else 0)
        slices.append(range(start, start + size))
        start += size
    return slices


# ----------------------------------------------------------------------
# shared hash table (striped ticket locks, open addressing)
# ----------------------------------------------------------------------

#: bucket layout: one coherence line = SLOTS slots of (key u32, val u32);
#: key 0 marks an empty slot.
SLOT_BYTES = 8


class SharedHashTable:
    """An open-addressing hash table in an S-COMA region.

    One bucket per coherence line (so bucket contention *is* line
    contention), ``stripes`` ticket locks guarding bucket groups, linear
    probing across buckets on overflow.  Built cooperatively: every rank
    constructs the same descriptor; lock cells live in the sync fabric's
    cell space, the buckets in the shared region.
    """

    def __init__(self, region: "ScomaRegion", n_buckets: int,
                 locks: Sequence, base_offset: int = 0) -> None:
        line_bytes = region.line_bytes
        if base_offset % line_bytes:
            raise ProgramError("hash table must start line-aligned")
        if base_offset + n_buckets * line_bytes > region.size:
            raise ProgramError("hash table exceeds the region")
        self.region = region
        self.n_buckets = n_buckets
        self.base_offset = base_offset
        self.locks = list(locks)
        self.slots_per_bucket = line_bytes // SLOT_BYTES

    def _bucket_of(self, key: int) -> int:
        # multiplicative hashing; keys are small sequential ints
        return (key * 2654435761 & 0xFFFFFFFF) % self.n_buckets

    def _stripe(self, bucket: int):
        return self.locks[bucket % len(self.locks)]

    def _slot_addr(self, bucket: int, slot: int) -> int:
        return self.region.addr(self.base_offset
                                + bucket * self.region.line_bytes
                                + slot * SLOT_BYTES)

    def insert(self, api: "ApApi", rank: int, key: int, value: int
               ) -> Generator["Event", None, bool]:
        """Insert (or overwrite) under the bucket stripe's ticket lock.

        Returns False when every probed bucket is full (the workloads
        size the table so this does not happen; the return value keeps
        the failure observable instead of silent).
        """
        if key == 0:
            raise ProgramError("key 0 is the empty-slot marker")
        for probe in range(self.n_buckets):
            bucket = (self._bucket_of(key) + probe) % self.n_buckets
            lock = self._stripe(bucket)
            yield from lock.acquire(api, rank)
            try:
                for slot in range(self.slots_per_bucket):
                    addr = self._slot_addr(bucket, slot)
                    k = yield from api.load_u32(addr)
                    if k == 0 or k == key:
                        yield from api.store_u32(addr, key)
                        yield from api.store_u32(addr + 4, value)
                        return True
            finally:
                yield from lock.release(api, rank)
        return False

    def lookup(self, api: "ApApi", key: int
               ) -> Generator["Event", None, int]:
        """Lock-free probe; returns the value or -1 when absent.  Safe
        once writers have quiesced (the workloads barrier in between)."""
        for probe in range(self.n_buckets):
            bucket = (self._bucket_of(key) + probe) % self.n_buckets
            for slot in range(self.slots_per_bucket):
                addr = self._slot_addr(bucket, slot)
                k = yield from api.load_u32(addr)
                if k == key:
                    return (yield from api.load_u32(addr + 4))
                if k == 0:
                    return -1
        return -1


def hash_keys_for_rank(rank: int, n_keys: int) -> List[int]:
    """This rank's key set (disjoint across ranks, never 0)."""
    return [rank * 1024 + i + 1 for i in range(n_keys)]


def hash_value_of(key: int) -> int:
    """The value every workload stores for ``key`` (verifiable)."""
    return (key * 7 + 3) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# sharing-pattern kernels (the bench_shm sweep)
# ----------------------------------------------------------------------

#: the four classic coherence access patterns.
SHARING_PATTERNS = ("private", "migratory", "producer_consumer", "hotspot")


def private_offset(region: "ScomaRegion", rank: int) -> int:
    """Region offset of ``rank``'s private line for the ``private``
    pattern: the first line after the shared line 0 homed at ``rank``."""
    line_bytes = region.line_bytes
    for line in range(1, region.n_lines):
        if region.home_of(line * line_bytes) == rank:
            return line * line_bytes
    raise ProgramError(f"no region line is homed at node {rank}")


def pattern_worker(api: "ApApi", comm, region: "ScomaRegion", pattern: str,
                   rank: int, n_ranks: int, rounds: int, out: Dict
                   ) -> Generator["Event", None, None]:
    """One rank of a sharing-pattern kernel.

    Each kernel performs ``rounds`` rounds of line-sized accesses and
    records ``out[rank] = (accesses, busy_ns)`` — time actually spent in
    loads/stores, excluding the barriers that keep rounds aligned:

    ``private``            every rank writes then reads a line homed at
                           itself — no protocol traffic after warmup.
    ``migratory``          one line visits every rank in turn; each
                           visit reads then writes (a recall per hop).
    ``producer_consumer``  rank 0 rewrites a line, everyone else reads
                           it (one invalidation round + refetches per
                           round).
    ``hotspot``            every rank writes the same line every round
                           (worst case: continuous recalls).
    """
    if pattern not in SHARING_PATTERNS:
        raise ProgramError(f"unknown sharing pattern {pattern!r}")
    shared = region.addr(0)
    private = region.addr(private_offset(region, rank))
    accesses = 0
    busy = 0.0
    payload = bytes([rank & 0xFF] * 8)
    for rnd in range(rounds):
        t0 = api.now
        if pattern == "private":
            yield from api.store(private, payload)
            yield from api.load(private, 8)
            accesses += 2
        elif pattern == "migratory":
            if rnd % n_ranks == rank:
                yield from api.load(shared, 8)
                yield from api.store(shared, payload)
                accesses += 2
        elif pattern == "producer_consumer":
            if rank == 0:
                yield from api.store(shared, bytes([rnd & 0xFF] * 8))
            accesses += 1
        elif pattern == "hotspot":
            yield from api.store(shared, payload)
            accesses += 1
        busy += api.now - t0
        # the barrier sequences the rounds (migratory hand-off order,
        # producer-before-consumers) without joining the timed window
        yield from comm.barrier(api)
        if pattern == "producer_consumer" and rank != 0:
            t0 = api.now
            yield from api.load(shared, 8)
            busy += api.now - t0
            yield from comm.barrier(api)
        elif pattern == "producer_consumer":
            yield from comm.barrier(api)
    out[rank] = (accesses, busy)


def pattern_ns_per_access(out: Dict) -> float:
    """Aggregate a pattern run's per-rank (accesses, busy_ns) records."""
    accesses = sum(a for a, _ in out.values())
    busy = sum(b for _, b in out.values())
    return busy / accesses if accesses else 0.0
