"""The benchmark's three workloads, built from a seed.

Each workload turns ``--seed`` into concrete inputs (a KV request trace,
hash-table key sets, per-step compute times and gradients), hands only
those inputs to a scenario that runs through the public
``repro.shard.ShardedMachine`` front door, and logs one latency sample
and one pass/fail verdict per operation at a public boundary:

``kv_zipf16``       each ``SloRecorder.complete`` call of the KV clients
                    (latency from the request's scheduled arrival);
``shm_hash16``      each ``SharedHashTable.insert``/``lookup`` call,
                    timed with ``api.now`` around it;
``allreduce_nic64`` each training step, recorded through the step's
                    ``SloRecorder`` and checked against the exact sum.

The machine itself is always the default configuration with seed 0, so
two seeds differ only in the generated inputs.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.common.config import default_config
from repro.lib.mpi import MiniMPI
from repro.shard.scenarios import HashScenario
from repro.shm.workloads import hash_value_of
from repro.traffic.load import make_kv_trace
from repro.traffic.scenarios import KvScenario, TrainScenario
from repro.traffic.slo import DEFAULT_SLO_NS, SloRecorder
from repro.traffic.train import DEFAULT_STEP_SLO_NS


class OpLog:
    """Exact per-operation samples: simulated latency and verdict."""

    def __init__(self) -> None:
        self.latency_ns: List[float] = []
        self.failed = 0

    def record(self, latency_ns: float, ok: bool = True) -> None:
        self.latency_ns.append(latency_ns)
        if not ok:
            self.failed += 1


class LoggedSlo(SloRecorder):
    """An :class:`SloRecorder` that also logs every completion."""

    __slots__ = ("log",)

    def __init__(self, node, app: str, slo_ns: float, log: OpLog) -> None:
        super().__init__(node, app, slo_ns)
        self.log = log

    def complete(self, latency_ns: float) -> None:
        super().complete(latency_ns)
        self.log.record(latency_ns)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ----------------------------------------------------------------------
# scenarios: the stock ones, fed generated inputs and logging each op
# ----------------------------------------------------------------------

class LoggedKvScenario(KvScenario):
    """``traffic_kv`` replaying a given trace, logging each completion."""

    def __init__(self, log: OpLog, **kw: Any) -> None:
        super().__init__(**kw)
        self.log = log

    def setup(self, phase: int, machine, local_nodes, ctx) -> None:
        super().setup(phase, machine, local_nodes, ctx)
        for client in ctx["clients"]:
            client.slo = LoggedSlo(client.node, "kv", self.slo_ns, self.log)


#: one phase of hash-table work: rank -> [(is_insert, key), ...].
HashPhase = Dict[int, List[Tuple[bool, int]]]


class SeededHashScenario(HashScenario):
    """``shm_hash`` over given per-phase operation lists.  Every insert
    stores ``hash_value_of(key)``, so every lookup is verifiable."""

    def __init__(self, log: OpLog, plan: List[HashPhase], **kw: Any
                 ) -> None:
        super().__init__(**kw)
        self.log = log
        self.plan = plan
        self.phases = len(plan)

    def setup(self, phase: int, machine, local_nodes, ctx) -> None:
        table = self._table(machine, ctx)
        log = self.log

        def program(api, rank):
            for is_insert, key in self.plan[phase][rank]:
                t0 = api.now
                if is_insert:
                    ok = yield from table.insert(api, rank, key,
                                                 hash_value_of(key))
                else:
                    value = yield from table.lookup(api, key)
                    ok = value == hash_value_of(key)
                log.record(api.now - t0, ok)

        for rank in local_nodes:
            machine.spawn(rank, program, rank)


class StepTrainScenario(TrainScenario):
    """``traffic_train`` allreduce steps with a seeded local-compute
    phase before each step's allreduce, so ranks arrive skewed."""

    def __init__(self, log: OpLog, compute_insns: List[List[int]],
                 grads: List[List[int]], algo: str) -> None:
        super().__init__(mode="allreduce", algo=algo, n_blocks=1,
                         steps=len(grads[0]), slo_ns=DEFAULT_STEP_SLO_NS)
        self.log = log
        self.compute_insns = compute_insns
        self.grads = grads
        self.sums = [sum(step) for step in zip(*grads)]

    def setup(self, phase: int, machine, local_nodes, ctx) -> None:
        mpi = MiniMPI(machine, algo=self.algo)
        for node in local_nodes:
            slo = LoggedSlo(machine.node(node), "ps", self.slo_ns, self.log)
            machine.spawn(node, self._worker, mpi.rank(node), slo, node)

    def _worker(self, api, comm, slo: LoggedSlo, node: int):
        for step, grad in enumerate(self.grads[node]):
            t0 = api.now
            slo.offer()
            yield from api.compute(self.compute_insns[node][step])
            total = yield from comm.allreduce(api, grad)
            if total != self.sums[step]:
                self.log.failed += 1
            slo.complete(api.now - t0)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """One benchmark workload: inputs from a seed, then a scenario."""

    name = ""
    n_nodes = 0
    #: latency limit for ``goodput``; None where the workload has none.
    slo_ns: Optional[float] = None

    def config(self):
        config = default_config(n_nodes=self.n_nodes)
        config.shards = 1
        return config

    def scenario(self, seed: int, log: OpLog):
        raise NotImplementedError

    def expected_ops(self) -> int:
        raise NotImplementedError

    def check(self, results: List[Any], log: OpLog) -> List[str]:
        """The scenario's own end-state check; returns problems found."""
        if len(log.latency_ns) != self.expected_ops():
            return [f"{self.name} completed {len(log.latency_ns)} of "
                    f"{self.expected_ops()} operations"]
        return []


class KvZipf(Workload):
    name = "kv_zipf16"
    n_nodes = 16
    slo_ns = DEFAULT_SLO_NS
    per_node = 96
    rate_rps = 70_000.0

    def scenario(self, seed: int, log: OpLog):
        trace = make_kv_trace(self.n_nodes, self.per_node, self.rate_rps,
                              seed=seed, n_keys=256, skew=1.1,
                              put_fraction=0.25)
        return LoggedKvScenario(log, trace=trace, transport="basic",
                                slo_ns=self.slo_ns)

    def expected_ops(self) -> int:
        return self.n_nodes * self.per_node

    def check(self, results, log):
        problems = super().check(results, log)
        offered = sum(r["offered"] for r in results)
        completed = sum(r["completed"] for r in results)
        if not offered == completed == self.expected_ops():
            problems.append(f"kv offered {offered}, completed {completed}")
        return problems


class ShmHash(Workload):
    name = "shm_hash16"
    n_nodes = 16
    stripes = 16
    inserts_per_rank = 4
    #: insert rounds to repeat after the lookups: each re-insert
    #: invalidates the copies the lookups left at every other rank.
    update_rounds = 1
    #: the table's multiplicative hash constant (``SharedHashTable``).
    HASH_MUL = 2654435761

    def scenario(self, seed: int, log: OpLog):
        """Balanced, seeded key placement, so that seeds differ in detail
        but not in how much contention they create.

        The table spans one S-COMA page per node, so each node is home
        for one page of buckets.  Inserts run in ``inserts_per_rank``
        rounds; in each round the ranks take distinct lock stripes and
        distinct home nodes, both in seeded order, and each key hashes to
        a random free bucket of its (home, stripe) pair.  Lookups: every
        rank reads every key once; at each step the ranks read keys of
        distinct homes, starting from a seeded home order.
        """
        rng = _rng(self.name, seed)
        n, s, rounds = self.n_nodes, self.stripes, self.inserts_per_rank
        config = self.config()
        page_lines = config.dram.page_bytes // config.bus.line_bytes
        n_buckets = n * page_lines
        used = set()
        by_home: Dict[int, List[int]] = {h: [] for h in range(n)}
        inserts: HashPhase = {r: [] for r in range(n)}
        for _ in range(rounds):
            stripes = rng.sample(range(s), n)
            homes = rng.sample(range(n), n)
            for rank in range(n):
                home = homes[rank]
                first = home * page_lines + stripes[rank]
                bucket = rng.choice([b for b in range(
                    first, (home + 1) * page_lines, s) if b not in used])
                used.add(bucket)
                key = self._key_in(rng, bucket, n_buckets)
                by_home[home].append(key)
                inserts[rank].append((True, key))
        order = rng.sample(range(n), n)
        lookups = {r: [(False, by_home[order[(r + j) % n]][(j // n + r)
                                                           % rounds])
                       for j in range(n * rounds)]
                   for r in range(n)}
        updates = {r: ops[:self.update_rounds] for r, ops in inserts.items()}
        return SeededHashScenario(log, [inserts, lookups, updates],
                                  stripes=s, n_buckets=n_buckets)

    def _key_in(self, rng: random.Random, bucket: int, n_buckets: int
                ) -> int:
        """A random nonzero key hashing to ``bucket``: with a power-of-two
        bucket count the hash is invertible modulo ``n_buckets``."""
        base = bucket * pow(self.HASH_MUL, -1, n_buckets) % n_buckets
        return base + n_buckets * rng.randrange(1, 1 << 10)

    def expected_ops(self) -> int:
        rounds = self.inserts_per_rank
        return self.n_nodes * (rounds * (self.n_nodes + 1)
                               + self.update_rounds)


class AllreduceNic(Workload):
    name = "allreduce_nic64"
    n_nodes = 64
    slo_ns = DEFAULT_STEP_SLO_NS
    steps = 16
    #: local gradient computation before each allreduce, in aP insns.
    compute_insns = (1_000, 3_000)

    def scenario(self, seed: int, log: OpLog):
        rng = _rng(self.name, seed)
        lo, hi = self.compute_insns
        compute = [[rng.randint(lo, hi) for _ in range(self.steps)]
                   for _ in range(self.n_nodes)]
        grads = [[rng.randrange(1, 1 << 16) for _ in range(self.steps)]
                 for _ in range(self.n_nodes)]
        return StepTrainScenario(log, compute, grads, algo="nic")

    def expected_ops(self) -> int:
        return self.n_nodes * self.steps


WORKLOADS = {w.name: w for w in (KvZipf(), ShmHash(), AllreduceNic())}
