"""Shard-aware workload scenarios.

A whole-machine workload cannot be a plain script once the machine is
sharded: each shard only holds its own node boards, so the workload must
be expressed as *per-shard setup* — "spawn the programs whose home node
you own".  A :class:`ShardScenario` packages that: the runner calls
:meth:`~ShardScenario.setup` once per shard per phase (with the shard's
local node range) and :meth:`~ShardScenario.result` after the global
drain.

Every scenario here is written against the wide-safe MiniMPI
point-to-point layer, so the same workload runs on 2 nodes or 512.  The
registry holds the workloads the shard parity tests and the scaling
benchmark share:

``fig3``   ping-pong latency ladder between the first and last node
           (the paper's Figure-3 shape; crosses every shard boundary).
``mixed``  all-to-all staggered messaging — the mixed-workload
           determinism pattern from ``tests/test_determinism.py``.
``sync``   software-tree barrier + allreduce on every rank.
``chaos``  ``mixed`` under a fault plan that downs a leaf uplink —
           a link that *is* a shard boundary at ``shards >= 2`` — then
           repairs it.
``shm_graph``  level-synchronous parallel BFS over an S-COMA shared
           region (the directory-coherence workload; shards=1 only).
``shm_hash``   striped-lock shared hash table: every rank inserts,
           then looks its keys back up (shards=1 only).
``sync_burst`` simultaneous-arrival counting-barrier burst against a
           deliberately shallow sP service queue — the PR 7 overflow
           regression shape, sized for the interleaving explorer.
``shm_takeover`` home-node stores racing a remote exclusive takeover
           of the same S-COMA line — the PR 9 FLUSH-vs-KILL regression
           shape (shards=1 only).

The production-traffic scenarios (``traffic_kv``, ``traffic_train``,
``traffic_usvc`` — see :mod:`repro.traffic.scenarios`) register here
lazily, so ``scenario("traffic_kv")`` works everywhere without this
module importing the traffic package at import time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.common.config import MachineConfig
from repro.common.errors import ConfigError


class ShardScenario:
    """One workload, described shard-locally.

    Subclasses override :meth:`setup` (spawn programs for nodes in
    ``local_nodes``; stash anything :meth:`result` needs in ``ctx``,
    which is private to the shard and its phases) and :meth:`result`
    (return a *picklable* value — it may cross a worker pipe).
    :meth:`prepare` runs once in the coordinator before any sub-machine
    is built and may mutate the config (fault plans, queue depths).
    """

    name = "scenario"
    #: number of setup/drain rounds; phase ``p`` starts only after phase
    #: ``p-1`` is globally quiescent and all shard clocks are aligned.
    phases = 1

    def prepare(self, config: MachineConfig) -> None:
        """Adjust the machine config before the shards are built."""

    def setup(self, phase: int, machine, local_nodes, ctx: Dict[str, Any]
              ) -> None:
        raise NotImplementedError

    def result(self, machine, local_nodes, ctx: Dict[str, Any]) -> Any:
        return None

    # -- shared helpers ----------------------------------------------------

    def _mpi(self, machine, ctx: Dict[str, Any]):
        """The shard's MiniMPI factory (software tree: no cluster-wide
        firmware install, so it builds cleanly on a partial machine)."""
        if "mpi" not in ctx:
            from repro.lib.mpi import MiniMPI

            ctx["mpi"] = MiniMPI(machine, algo="tree")
        return ctx["mpi"]


class PingScenario(ShardScenario):
    """Figure-3 shape: a latency ladder, first node <-> last node."""

    name = "fig3"

    def __init__(self, sizes: Sequence[int] = (4, 64, 512),
                 pings: int = 3) -> None:
        self.sizes = tuple(sizes)
        self.pings = pings

    def setup(self, phase: int, machine, local_nodes, ctx) -> None:
        n = machine.config.n_nodes
        if n < 2:
            raise ConfigError("fig3 ping-pong needs at least 2 nodes")
        src, dst = 0, n - 1
        schedule = [s for s in self.sizes for _ in range(self.pings)]
        if src in local_nodes:
            src_comm = self._mpi(machine, ctx).rank(src)

            def pinger(api):
                rtts: List[Tuple[int, float]] = []
                ok = True
                for i, size in enumerate(schedule):
                    payload = bytes((i + j) & 0xFF for j in range(size))
                    t0 = api.now
                    yield from src_comm.send(api, dst, payload, tag=1)
                    _s, _t, back = yield from src_comm.recv(api, src=dst,
                                                            tag=2)
                    ok = ok and back == payload
                    rtts.append((size, api.now - t0))
                ctx["rtts"] = rtts
                ctx["echo_ok"] = ok

            machine.spawn(src, pinger)
        if dst in local_nodes:
            dst_comm = self._mpi(machine, ctx).rank(dst)

            def echo(api):
                for _ in range(len(schedule)):
                    _s, _t, data = yield from dst_comm.recv(api, src=src,
                                                            tag=1)
                    yield from dst_comm.send(api, src, data, tag=2)

            machine.spawn(dst, echo)

    def result(self, machine, local_nodes, ctx) -> Dict[str, Any]:
        return {"rtts": ctx.get("rtts"), "echo_ok": ctx.get("echo_ok")}


class MixedScenario(ShardScenario):
    """Staggered all-to-all messaging (the determinism-suite pattern).

    Rank ``r`` sends ``rounds`` messages to ``(r + 1 + i) % n`` and then
    drains exactly the deliveries addressed to it, logging each arrival.
    Traffic between ranks in different node blocks crosses the shard
    boundary; traffic inside a block stays shard-local — both paths run
    in the same event history.
    """

    name = "mixed"

    def __init__(self, rounds: int = 6, payload: int = 16) -> None:
        self.rounds = rounds
        self.payload = payload

    def _incoming(self, rank: int, n: int) -> int:
        return sum(1 for sender in range(n) for i in range(self.rounds)
                   if (sender + 1 + i) % n == rank and rank != sender)

    def setup(self, phase: int, machine, local_nodes, ctx) -> None:
        n = machine.config.n_nodes
        mpi = self._mpi(machine, ctx)
        log = ctx.setdefault("log", [])

        def worker(api, rank):
            comm = mpi.rank(rank)
            for i in range(self.rounds):
                dst = (rank + 1 + i) % n
                if dst != rank:
                    body = bytes([rank & 0xFF, i]) * (self.payload // 2)
                    yield from comm.send(api, dst, body, tag=3)
            for _ in range(self._incoming(rank, n)):
                src, _tag, data = yield from comm.recv(api, tag=3)
                log.append((api.now, rank, src, bytes(data[:2])))

        for rank in local_nodes:
            machine.spawn(rank, worker, rank)

    def result(self, machine, local_nodes, ctx) -> List[Tuple]:
        return ctx.get("log", [])


class SyncScenario(ShardScenario):
    """Every rank: barrier, allreduce(rank + 1), barrier."""

    name = "sync"

    def setup(self, phase: int, machine, local_nodes, ctx) -> None:
        mpi = self._mpi(machine, ctx)
        sums = ctx.setdefault("sums", {})

        def worker(api, rank):
            comm = mpi.rank(rank)
            yield from comm.barrier(api)
            total = yield from comm.allreduce(api, rank + 1, op="sum")
            yield from comm.barrier(api)
            sums[rank] = total

        for rank in local_nodes:
            machine.spawn(rank, worker, rank)

    def result(self, machine, local_nodes, ctx) -> Dict[int, Any]:
        return ctx.get("sums", {})


def boundary_link_names(config: MachineConfig, ref_shards: int = 2
                        ) -> List[str]:
    """Link names cut by the ``ref_shards``-way partition of ``config``.

    Computed against a *fixed reference* shard count, not the config's
    own, so callers (the chaos scenario, its parity test) derive the
    identical link set no matter how many shards actually run.
    """
    from dataclasses import replace

    from repro.shard.partition import ShardPlan

    plan = ShardPlan(replace(config, shards=ref_shards))
    topo = plan.topology
    cut: List[str] = []
    for node in range(config.n_nodes):
        leaf = topo.leaf_switch(node)
        if plan.node_shard(node) != plan.switch_shard(1, leaf):
            cut.append(f"n{node}->sw1.{leaf}")
            cut.append(f"sw1.{leaf}->n{node}")
    for level in range(1, topo.levels):
        for index in range(topo.switches_per_level):
            here = plan.switch_shard(level, index)
            for b in range(topo.down_degree):
                p_level, p_index = topo.up_target(level, index, b)
                if here != plan.switch_shard(p_level, p_index):
                    cut.append(f"sw{level}.{index}->sw{p_level}.{p_index}")
                    cut.append(f"sw{p_level}.{p_index}->sw{level}.{index}")
    return sorted(set(cut))


class ChaosScenario(MixedScenario):
    """The mixed workload with boundary links failing mid-run.

    The plan downs the first two links cut by the reference 2-way
    partition (see :func:`boundary_link_names`) — at ``shards >= 2``
    cross-shard traffic must reroute around the failure over the fat
    tree's path diversity — then repairs them.  The down/up timeline is
    statically known, so every shard count observes the identical
    routing history.
    """

    name = "chaos"

    def __init__(self, down_ns: float = 40_000.0, up_ns: float = 200_000.0,
                 n_links: int = 2, **kw) -> None:
        super().__init__(**kw)
        self.down_ns = down_ns
        self.up_ns = up_ns
        self.n_links = n_links

    def prepare(self, config: MachineConfig) -> None:
        from repro.faults.plan import FaultPlan, LinkEvent

        if config.faults is not None:
            raise ConfigError("chaos scenario supplies its own fault plan")
        victims = boundary_link_names(config)[:self.n_links]
        if not victims:
            raise ConfigError("no shard-boundary links to fault")
        events = []
        for name in victims:
            events.append(LinkEvent(time_ns=self.down_ns, link=name,
                                    up=False))
            events.append(LinkEvent(time_ns=self.up_ns, link=name, up=True))
        config.faults = FaultPlan(seed=config.seed, link_events=events)


class _CoherentScenario(ShardScenario):
    """Base for S-COMA shared-memory workloads.

    The coherence traffic itself is ordinary firmware messaging and
    would shard, but the sanitizer's quiescence check fires at every
    window barrier — where an in-flight invalidation round is
    legitimate — so these scenarios pin ``shards=1`` until windowed
    quiescence learns to carry BUSY lines across barriers.
    """

    def prepare(self, config: MachineConfig) -> None:
        if config.shards > 1:
            raise ConfigError(
                f"scenario {self.name!r} requires shards=1 (directory "
                f"quiescence is checked at every window barrier)")


class GraphScenario(_CoherentScenario):
    """Parallel BFS over a shared distance array (see
    :mod:`repro.shm.workloads`): phase 0 runs the level-synchronous
    traversal on every rank, phase 1 coherently re-reads the distances
    on rank 0 and diffs them against the sequential reference."""

    name = "shm_graph"
    phases = 2

    def __init__(self, n_vertices: int = 96, degree: int = 2,
                 seed: int = 1) -> None:
        self.n_vertices = n_vertices
        self.degree = degree
        self.seed = seed

    def setup(self, phase: int, machine, local_nodes, ctx) -> None:
        from repro.shm.scoma import ScomaRegion
        from repro.shm.workloads import (
            bfs_verify,
            bfs_worker,
            init_bfs_region,
            make_graph,
            sequential_bfs,
            vertex_slices,
        )

        n = machine.config.n_nodes
        if phase == 0:
            region = ctx["region"] = ScomaRegion(machine)
            adj = ctx["adj"] = make_graph(self.n_vertices, self.degree,
                                          self.seed)
            init_bfs_region(region, self.n_vertices)
            mpi = self._mpi(machine, ctx)
            out = ctx.setdefault("out", {})
            slices = vertex_slices(self.n_vertices, n)
            for rank in local_nodes:
                machine.spawn(rank, bfs_worker, mpi.rank(rank), region,
                              adj, slices[rank].start, slices[rank].stop,
                              out)
            return
        if 0 in local_nodes:
            expected = sequential_bfs(ctx["adj"])
            machine.spawn(0, bfs_verify, ctx["region"], expected,
                          ctx["out"])

    def result(self, machine, local_nodes, ctx) -> Dict[str, Any]:
        out = ctx.get("out", {})
        return {"levels": out.get("levels"), "bfs_ok": out.get("bfs_ok"),
                "bad_vertices": out.get("bfs_bad_vertices")}


class HashScenario(_CoherentScenario):
    """Striped-lock shared hash table: phase 0 has every rank insert its
    key set under ticket locks; phase 1 looks every key back up."""

    name = "shm_hash"
    phases = 2

    def __init__(self, keys_per_rank: int = 8, n_buckets: int = 64,
                 stripes: int = 4, lock_mode: str = "switch") -> None:
        self.keys_per_rank = keys_per_rank
        self.n_buckets = n_buckets
        self.stripes = stripes
        # switch mode combines the spinners' now-serving polls in the
        # network — the endpoint path melts down past ~8 contenders
        self.lock_mode = lock_mode

    def _table(self, machine, ctx):
        from repro.shm.scoma import ScomaRegion
        from repro.shm.workloads import SharedHashTable

        if "table" not in ctx:
            region = ScomaRegion(machine)
            region.init_data(0, bytes(self.n_buckets * region.line_bytes))
            group = machine.sync_fabric().group(
                range(machine.config.n_nodes), mode=self.lock_mode)
            locks = [group.ticket_lock(cell=2 * s)
                     for s in range(self.stripes)]
            ctx["table"] = SharedHashTable(region, self.n_buckets, locks)
        return ctx["table"]

    def setup(self, phase: int, machine, local_nodes, ctx) -> None:
        from repro.shm.workloads import hash_keys_for_rank, hash_value_of

        table = self._table(machine, ctx)
        if phase == 0:
            inserted = ctx.setdefault("inserted", {})

            def writer(api, rank):
                ok = True
                for key in hash_keys_for_rank(rank, self.keys_per_rank):
                    done = yield from table.insert(api, rank, key,
                                                   hash_value_of(key))
                    ok = ok and done
                inserted[rank] = ok

            for rank in local_nodes:
                machine.spawn(rank, writer, rank)
            return
        found = ctx.setdefault("found", {})

        def reader(api, rank):
            ok = True
            for key in hash_keys_for_rank(rank, self.keys_per_rank):
                value = yield from table.lookup(api, key)
                ok = ok and value == hash_value_of(key)
            found[rank] = ok

        for rank in local_nodes:
            machine.spawn(rank, reader, rank)

    def result(self, machine, local_nodes, ctx) -> Dict[str, Any]:
        return {"inserted": ctx.get("inserted", {}),
                "found": ctx.get("found", {})}


class PatternScenario(_CoherentScenario):
    """One sharing-pattern kernel (see
    :func:`repro.shm.workloads.pattern_worker`): every rank runs
    ``rounds`` rounds of the pattern's access mix; the result is the
    aggregate ns-per-access — the ``bench_shm`` sweep's data point."""

    name = "shm_patterns"
    phases = 1

    def __init__(self, pattern: str = "hotspot", rounds: int = 6) -> None:
        self.pattern = pattern
        self.rounds = rounds

    def setup(self, phase: int, machine, local_nodes, ctx) -> None:
        from repro.shm.scoma import ScomaRegion
        from repro.shm.workloads import pattern_worker

        n = machine.config.n_nodes
        region = ctx["region"] = ScomaRegion(machine)
        # line 0 is the shared line; each rank's private line follows
        region.init_data(0, bytes((n + 1) * region.line_bytes))
        mpi = self._mpi(machine, ctx)
        out = ctx.setdefault("out", {})
        for rank in local_nodes:
            machine.spawn(rank, pattern_worker, mpi.rank(rank), region,
                          self.pattern, rank, n, self.rounds, out)

    def result(self, machine, local_nodes, ctx) -> Dict[str, Any]:
        from repro.shm.workloads import pattern_ns_per_access

        out = ctx.get("out", {})
        return {"pattern": self.pattern,
                "ns_per_access": pattern_ns_per_access(out),
                "ranks": len(out)}


class BurstScenario(ShardScenario):
    """Counting-barrier incast against a shallow sP service queue.

    Every rank enters the barrier at t=0, so the coordinator's service
    queue sees a simultaneous-arrival burst deeper than itself and the
    excess diverts to the miss queue.  On current firmware the diverted
    entries are redelivered and the barrier opens; under the
    ``overflow_drop`` behavior model (:mod:`repro.explore.models`) they
    vanish and the barrier hangs — the deadlock watchdog's business.
    """

    name = "sync_burst"

    def __init__(self, queue_depth: int = 2) -> None:
        self.queue_depth = queue_depth

    def prepare(self, config: MachineConfig) -> None:
        if config.shards > 1:
            raise ConfigError(
                f"scenario {self.name!r} requires shards=1 (the barrier "
                f"group spans every node)")
        config.niu.queue_depth = self.queue_depth

    def setup(self, phase: int, machine, local_nodes, ctx) -> None:
        n = machine.config.n_nodes
        grp = machine.sync_fabric().group(range(n), mode="endpoint")
        done = ctx.setdefault("done", {})

        def prog(api, rank):
            yield from grp.barrier(api, rank)
            done[rank] = True

        for rank in local_nodes:
            machine.spawn(rank, prog, rank)

    def result(self, machine, local_nodes, ctx) -> Dict[str, Any]:
        done = ctx.get("done", {})
        return {"done": dict(sorted(done.items())),
                "all_released": len(done) == machine.config.n_nodes}


class TakeoverScenario(_CoherentScenario):
    """Home-node stores racing a remote exclusive takeover of the line.

    Phase 0: rank 0 (the home) streams single-byte stores into line 0
    while rank 1 grabs exclusive ownership mid-stream; phase 1 reads the
    line back.  Every byte has a single writer, so ``ok`` means no store
    was lost.  On current firmware the grant path revokes-then-FLUSHes;
    under the ``kill_grant`` behavior model it snapshots-then-KILLs and
    a Modified home store can vanish.
    """

    name = "shm_takeover"
    phases = 2

    def __init__(self, stores: int = 8, gap_ns: float = 150.0,
                 steal_ns: float = 700.0) -> None:
        self.stores = stores
        self.gap_ns = gap_ns
        self.steal_ns = steal_ns

    def setup(self, phase: int, machine, local_nodes, ctx) -> None:
        from repro.shm.scoma import ScomaRegion

        if machine.config.n_nodes < 2:
            raise ConfigError("shm_takeover needs at least 2 nodes")
        if phase == 0:
            region = ctx["region"] = ScomaRegion(machine, n_lines=8)
            region.init_data(0, bytes(region.line_bytes))

            def home_writer(api):
                for i in range(self.stores):
                    yield from api.store(region.addr(i), bytes([0xA0 + i]))
                    yield from api.sleep(self.gap_ns)

            def thief(api):
                yield from api.sleep(self.steal_ns)
                yield from api.store(region.addr(self.stores), b"\xbb")

            if 0 in local_nodes:
                machine.spawn(0, home_writer)
            if 1 in local_nodes:
                machine.spawn(1, thief)
            return
        if 0 in local_nodes:
            region = ctx["region"]

            def reader(api):
                got = yield from api.load(region.addr(0), self.stores + 1)
                ctx["got"] = bytes(got)

            machine.spawn(0, reader)

    def result(self, machine, local_nodes, ctx) -> Dict[str, Any]:
        want = bytes(0xA0 + i for i in range(self.stores)) + b"\xbb"
        got = ctx.get("got", b"")
        return {"ok": got == want, "got": got.hex(), "want": want.hex()}


_REGISTRY = {
    PingScenario.name: PingScenario,
    MixedScenario.name: MixedScenario,
    SyncScenario.name: SyncScenario,
    ChaosScenario.name: ChaosScenario,
    GraphScenario.name: GraphScenario,
    HashScenario.name: HashScenario,
    PatternScenario.name: PatternScenario,
    BurstScenario.name: BurstScenario,
    TakeoverScenario.name: TakeoverScenario,
}


def _ensure_traffic_scenarios() -> None:
    """Merge the traffic scenarios in on first lookup (lazy: the traffic
    package imports ShardScenario from here, so an eager import would be
    circular)."""
    if "traffic_kv" in _REGISTRY:
        return
    from repro.traffic.scenarios import TRAFFIC_SCENARIOS

    _REGISTRY.update(TRAFFIC_SCENARIOS)


def scenario(name: str, **kwargs: Any) -> ShardScenario:
    """Instantiate a registered scenario by name."""
    _ensure_traffic_scenarios()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def scenario_names() -> List[str]:
    _ensure_traffic_scenarios()
    return sorted(_REGISTRY)
