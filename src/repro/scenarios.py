"""``repro.scenarios`` — every named measurement, and its runner.

A :class:`Scenario` packages a workload as per-phase setup: the runner
(:class:`ScenarioMachine`) builds one machine, calls
:meth:`~Scenario.setup` once per phase with every node, drains the
event queue after each phase (phase ``p`` starts at the instant phase
``p - 1`` drained, and drain hooks such as the sanitizers' end-of-run
checks fire at every drain), then returns the machine's ordinary
:func:`~repro.obs.snapshot.metrics_snapshot` with the scenario's
:meth:`~Scenario.result`.  Each scenario also declares the fewest nodes
it runs on, its own result check, and its parameters at explorer scale,
so the benches, ``repro.bench.report``, the sweep workers and
``repro.explore`` all read one registry.

Front door::

    from repro.scenarios import measure, run_scenario, scenario

    run = run_scenario(scenario("mixed"), n_nodes=8)
    run.snapshot              # the machine's metrics snapshot
    run.results               # [the scenario's result]
    measure("express")        # one point's result on a fresh machine

The paper's points, each result a number in ns unless noted:
``express``, ``basic`` and ``mpi_pingpong`` (mean one-way ping-pong
latency), ``basic_stream`` (msgs/s and MB/s), ``collective`` (one
barrier / bcast / allreduce at N nodes for an ``algo``),
``block_transfer`` (one §6 transfer: a
:class:`~repro.core.blocktransfer.TransferResult`), ``tagon`` (per-message
ns of a TagOn-augmented Basic stream), ``numa_read`` and ``scoma_read``
(cold miss and warm hit, optionally under bulk DMA).  The workloads: ``fig3``
(ping-pong ladder), ``mixed`` (staggered all-to-all), ``sync``
(barrier + allreduce), ``chaos`` (``mixed`` over failing links),
``shm_graph`` (parallel BFS), ``shm_hash`` (striped-lock hash table),
``shm_patterns`` (one sharing-pattern kernel), and the explorer's
regression shapes ``sync_burst`` (service-queue overflow) and
``shm_takeover`` (FLUSH-vs-KILL).

The production-traffic scenarios (``traffic_kv``, ``traffic_train``,
``traffic_usvc`` — see :mod:`repro.traffic.scenarios`) register here
lazily, so ``scenario("traffic_kv")`` works everywhere without this
module importing the traffic package at import time.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.config import MachineConfig, default_config
from repro.common.errors import ConfigError
from repro.core.machine import StarTVoyager
from repro.obs.snapshot import metrics_snapshot


class Scenario:
    """One workload, described as per-phase setup.

    Subclasses override :meth:`setup` (spawn programs for ``nodes`` —
    every node of the machine; stash anything :meth:`result` needs in
    ``ctx``, which the phases share), :meth:`result` and :meth:`check`.
    :meth:`prepare` runs once before the machine is built and may mutate
    the config (fault plans, queue depths).
    """

    name = "scenario"
    #: number of setup/drain rounds; phase ``p`` starts at the instant
    #: phase ``p-1`` drained.
    phases = 1
    #: the fewest nodes the scenario runs on.
    min_nodes = 2
    #: constructor parameters at explorer scale (2-4 nodes, short runs).
    explore_params: Dict[str, Any] = {}

    def prepare(self, config: MachineConfig) -> None:
        """Adjust the machine config before the machine is built."""

    def setup(self, phase: int, machine, nodes, ctx: Dict[str, Any]
              ) -> None:
        raise NotImplementedError

    def result(self, machine, nodes, ctx: Dict[str, Any]) -> Any:
        return None

    def check(self, result: Any) -> Optional[str]:
        """What is wrong with ``result``, or None when it is right."""
        return None

    # -- shared helpers ----------------------------------------------------

    def _mpi(self, machine, ctx: Dict[str, Any]):
        """The scenario's MiniMPI factory (software tree: no
        cluster-wide firmware install)."""
        if "mpi" not in ctx:
            from repro.lib.mpi import MiniMPI

            ctx["mpi"] = MiniMPI(machine, algo="tree")
        return ctx["mpi"]


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


class ScenarioRun(NamedTuple):
    """Everything a scenario run produced."""

    #: the machine's metrics snapshot.
    snapshot: Dict[str, Any]
    #: the scenario result, as a one-element list.
    results: List[Any]
    #: how many phases ran, each drained in one :meth:`Engine.run`.
    windows: int


class ScenarioMachine:
    """One scenario bound to one freshly built machine.

    The machine is built here, so a caller can reach it through
    :attr:`machine` (to install a schedule policy or a handler, say)
    before :meth:`run`.
    """

    def __init__(self, config: MachineConfig, scenario: Scenario) -> None:
        if config.n_nodes < scenario.min_nodes:
            raise ConfigError(f"{scenario.name} needs at least "
                              f"{scenario.min_nodes} nodes")
        self.scenario = scenario
        self.machine = StarTVoyager(config)
        self.ctx: Dict[str, Any] = {}

    def run(self) -> ScenarioRun:
        """Run every scenario phase to quiescence and snapshot."""
        machine, scenario = self.machine, self.scenario
        nodes = range(machine.config.n_nodes)
        for phase in range(scenario.phases):
            scenario.setup(phase, machine, nodes, self.ctx)
            machine.engine.run()
        result = scenario.result(machine, nodes, self.ctx)
        return ScenarioRun(metrics_snapshot(machine), [result],
                           scenario.phases)


def run_scenario(scenario: Scenario, config: Optional[MachineConfig] = None,
                 n_nodes: int = 4, seed: int = 0) -> ScenarioRun:
    """Run one scenario on a fresh machine.

    Either pass a ready ``config`` or let the helper build a default one
    from ``n_nodes``/``seed``.
    """
    if config is None:
        config = default_config(n_nodes=n_nodes)
        config.seed = seed
    scenario.prepare(config)
    return ScenarioMachine(config, scenario).run()


def measure(name: str, n_nodes: int = 2, **params: Any) -> Any:
    """One registered point's result on a fresh default machine."""
    return run_scenario(scenario(name, **params), n_nodes=n_nodes).results[0]


# ----------------------------------------------------------------------
# the paper's points
# ----------------------------------------------------------------------


def _positive(value: float) -> Optional[str]:
    return None if value > 0 else f"non-positive latency {value!r}"


class _PingPong(Scenario):
    """Node 0 and node 1 bounce one message ``repeats`` times; the
    result is the mean one-way latency in ns."""

    def __init__(self, repeats: int) -> None:
        self.repeats = repeats

    def legs(self, machine):
        """``((send, recv), (send, recv))`` of node 0 and node 1, each a
        generator function of the program's ``api``."""
        raise NotImplementedError

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        (send0, recv0), (send1, recv1) = self.legs(machine)
        ctx["t0"] = machine.now

        def ping(api):
            for _ in range(self.repeats):
                yield from send0(api)
                yield from recv0(api)
            ctx["end"] = api.now

        def pong(api):
            for _ in range(self.repeats):
                yield from recv1(api)
                yield from send1(api)
            ctx["end"] = api.now

        machine.spawn(0, ping)
        machine.spawn(1, pong)

    def result(self, machine, nodes, ctx) -> float:
        return (ctx["end"] - ctx["t0"]) / (2 * self.repeats)

    def check(self, result: float) -> Optional[str]:
        return _positive(result)


class ExpressScenario(_PingPong):
    """Express one-way latency: one store out, one load in."""

    name = "express"

    def __init__(self, repeats: int = 20) -> None:
        super().__init__(repeats)

    def legs(self, machine):
        from repro.mp import EXPRESS_RX_LOGICAL, ExpressPort, vdst_for

        e0, e1 = ExpressPort(machine.node(0)), ExpressPort(machine.node(1))
        to0 = vdst_for(0, EXPRESS_RX_LOGICAL)
        to1 = vdst_for(1, EXPRESS_RX_LOGICAL)
        return ((lambda api: e0.send(api, to1, b"01234"), e0.recv_blocking),
                (lambda api: e1.send(api, to0, b"43210"), e1.recv_blocking))


class BasicScenario(_PingPong):
    """Basic-message one-way latency at ``payload_bytes``."""

    name = "basic"

    def __init__(self, payload_bytes: int = 8, repeats: int = 20) -> None:
        super().__init__(repeats)
        self.payload_bytes = payload_bytes

    def legs(self, machine):
        from repro.mp import BasicPort, vdst_for

        p0 = BasicPort(machine.node(0), 0, 0)
        p1 = BasicPort(machine.node(1), 0, 0)
        payload = bytes(self.payload_bytes)
        to0, to1 = vdst_for(0, 0), vdst_for(1, 0)
        return ((lambda api: p0.send(api, to1, payload), p0.recv),
                (lambda api: p1.send(api, to0, payload), p1.recv))


class MpiPingPongScenario(_PingPong):
    """Mini-MPI one-way latency (library overhead and fragmentation
    included) at ``payload_bytes``."""

    name = "mpi_pingpong"

    def __init__(self, payload_bytes: int = 64, repeats: int = 10) -> None:
        super().__init__(repeats)
        self.payload_bytes = payload_bytes

    def legs(self, machine):
        from repro.lib.mpi import MiniMPI

        mpi = MiniMPI(machine)
        r0, r1 = mpi.rank(0), mpi.rank(1)
        payload = bytes(self.payload_bytes)
        return ((lambda api: r0.send(api, 1, payload),
                 lambda api: r0.recv(api, src=1)),
                (lambda api: r1.send(api, 0, payload),
                 lambda api: r1.recv(api, src=0)))


class BasicStreamScenario(Scenario):
    """One-directional Basic-message stream, node 0 to node 1: the
    result is ``{"msgs_per_s", "mb_per_s", "elapsed_ns"}``, timed to the
    end of the stream (the receiver's last message), plus the sender's
    side: ``{"send_mb_per_s", "send_elapsed_ns"}``, timed to the last
    send returning.  The sender-side rate is the one transmit-queue
    depth moves; the receiver-bound end is set by the consumer's
    polling."""

    name = "basic_stream"

    def __init__(self, payload_bytes: int = 64, count: int = 200) -> None:
        self.payload_bytes = payload_bytes
        self.count = count

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        from repro.mp import BasicPort, vdst_for

        p0 = BasicPort(machine.node(0), 0, 0)
        p1 = BasicPort(machine.node(1), 0, 0)
        payload = bytes(self.payload_bytes)
        ctx["t0"] = machine.now

        def producer(api):
            for _ in range(self.count):
                yield from p0.send(api, vdst_for(1, 0), payload)
            ctx["send_end"] = api.now

        def consumer(api):
            for _ in range(self.count):
                yield from p1.recv(api)
            ctx["recv_end"] = api.now

        machine.spawn(0, producer)
        machine.spawn(1, consumer)

    def result(self, machine, nodes, ctx) -> Dict[str, float]:
        elapsed = max(ctx["send_end"], ctx["recv_end"]) - ctx["t0"]
        send_elapsed = ctx["send_end"] - ctx["t0"]
        volume = self.count * self.payload_bytes
        return {
            "msgs_per_s": self.count / (elapsed / 1e9),
            "mb_per_s": volume / elapsed * 1000.0,
            "elapsed_ns": elapsed,
            "send_mb_per_s": volume / send_elapsed * 1000.0,
            "send_elapsed_ns": send_elapsed,
        }

    def check(self, result: Dict[str, float]) -> Optional[str]:
        return _positive(result["elapsed_ns"])


class CollectiveScenario(Scenario):
    """Mean completion time (ns) of one collective over every node.

    ``collective`` is ``"barrier"``, ``"bcast"`` or ``"allreduce"``;
    ``algo`` selects the :class:`~repro.lib.mpi.MiniMPI` collective
    family (``"flat"`` / ``"tree"`` / ``"nic"``).  Back-to-back
    ``repeats`` amortize start-up skew.
    """

    name = "collective"

    def __init__(self, collective: str = "barrier", algo: str = "flat",
                 repeats: int = 4, payload_bytes: int = 32) -> None:
        if collective not in ("barrier", "bcast", "allreduce"):
            raise ConfigError(f"unknown collective {collective!r}")
        self.collective = collective
        self.algo = algo
        self.repeats = repeats
        self.payload_bytes = payload_bytes

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        from repro.lib.mpi import MiniMPI

        mpi = MiniMPI(machine, algo=self.algo)
        payload = bytes(self.payload_bytes)
        ctx["t0"] = machine.now

        def worker(api, rank):
            comm = mpi.rank(rank)
            for _ in range(self.repeats):
                if self.collective == "barrier":
                    yield from comm.barrier(api)
                elif self.collective == "bcast":
                    yield from comm.bcast(api, payload if rank == 0 else None)
                else:
                    yield from comm.allreduce(api, rank + 1, op="sum")
            ctx["end"] = api.now

        for rank in nodes:
            machine.spawn(rank, worker, rank)

    def result(self, machine, nodes, ctx) -> float:
        return (ctx["end"] - ctx["t0"]) / self.repeats

    def check(self, result: float) -> Optional[str]:
        return _positive(result)


class BlockTransferScenario(Scenario):
    """One §6 block transfer, node 0 to node 1 (see
    :mod:`repro.core.blocktransfer`): the result is its
    :class:`~repro.core.blocktransfer.TransferResult`, measured when
    both ends finish; the runner then drains the machine."""

    name = "block_transfer"

    def __init__(self, approach: int = 3, size: int = 4096) -> None:
        self.approach = approach
        self.size = size

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        from repro.core.blocktransfer import BlockTransferExperiment

        ctx["transfer"] = BlockTransferExperiment(machine).run(
            self.approach, self.size)

    def result(self, machine, nodes, ctx):
        return ctx["transfer"]

    def check(self, result) -> Optional[str]:
        if not result.verified:
            return f"A{result.approach}/{result.size} corrupted data"
        return None


class NumaReadScenario(Scenario):
    """Mean latency of node 0 reading node 1's NUMA memory: every read
    is a firmware round trip."""

    name = "numa_read"
    #: reads averaged over.
    repeats = 10

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        from repro.shm import NumaSpace

        numa = NumaSpace(machine)

        def prog(api):
            yield from numa.write(api, 1, 0x100, b"x" * 8)
            t0 = api.now
            for _ in range(self.repeats):
                yield from numa.read(api, 1, 0x100, 8)
            ctx["ns"] = (api.now - t0) / self.repeats

        machine.spawn(0, prog)

    def result(self, machine, nodes, ctx) -> float:
        return ctx["ns"]

    def check(self, result: float) -> Optional[str]:
        return _positive(result)


class ScomaReadScenario(Scenario):
    """Node 1 loads one S-COMA line homed at node 0: the result is
    ``{"cold": ns, "warm": ns}``, the protocol fill and the mean of
    ``warm_reads`` local hits after it.

    With ``bulk_dma`` node 0 first streams four 8 KB DMA writes to node 1
    on the LOW network priority, and the load starts 30 us in, while the
    bulk stream holds the links: the protocol rides the HIGH priority,
    so the miss should inflate only modestly — the reason the paper
    "require[s] that the network supports at least two priority
    levels"."""

    name = "scoma_read"

    def __init__(self, warm_reads: int = 20, bulk_dma: bool = False) -> None:
        self.warm_reads = warm_reads
        self.bulk_dma = bulk_dma

    def _bulk(self, machine) -> None:
        from repro.mp import BasicPort
        from repro.mp.dma import dma_write

        machine.node(0).dram.poke(0x10000, bytes(32768))
        port = BasicPort(machine.node(0), 1, 1)

        def bulk(api):
            for _ in range(4):
                yield from dma_write(api, port, 1, 0x10000, 0x28000, 8192)
                yield from api.sleep(1_000)

        machine.spawn(0, bulk)

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        from repro.shm import ScomaRegion

        region = ScomaRegion(machine, n_lines=64)
        region.init_data(0, bytes(32))
        if self.bulk_dma:
            self._bulk(machine)

        def prog(api):
            if self.bulk_dma:
                yield from api.sleep(30_000)  # let the bulk stream start
            t0 = api.now
            yield from api.load(region.addr(0), 8)
            ctx["cold"] = api.now - t0
            t0 = api.now
            for _ in range(self.warm_reads):
                yield from api.load(region.addr(0), 8)
            ctx["warm"] = (api.now - t0) / self.warm_reads

        machine.spawn(1, prog)

    def result(self, machine, nodes, ctx) -> Dict[str, float]:
        return {"cold": ctx["cold"], "warm": ctx["warm"]}

    def check(self, result: Dict[str, float]) -> Optional[str]:
        if not 0 < result["warm"] < result["cold"]:
            return f"warm hit not cheaper than the cold miss: {result}"
        return None


TAGON_BYTES = 80  # one large TagOn: five 16-byte aSRAM units


class TagOnScenario(Scenario):
    """Node 0 streams ``count`` Basic messages to node 1, each a 3-byte
    header plus ``TAGON_BYTES`` of TagOn data staged once in aSRAM: the
    result is the mean ns per message, to the end of the stream."""

    name = "tagon"
    explore_params = {"count": 4}

    def __init__(self, count: int = 20) -> None:
        self.count = count

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        from repro.mp import BasicPort, vdst_for

        p0 = BasicPort(machine.node(0), 0, 0)
        p1 = BasicPort(machine.node(1), 0, 0)
        staging = machine.node(0).niu.alloc_asram(TAGON_BYTES, align=16)
        ctx["t0"] = machine.now

        def sender(api):
            tag = yield from p0.stage_tagon(api, staging, bytes(TAGON_BYTES))
            for _ in range(self.count):
                yield from p0.send(api, vdst_for(1, 0), b"hdr", tagon=tag)
            ctx["send_end"] = api.now

        def receiver(api):
            for _ in range(self.count):
                yield from p1.recv(api)
            ctx["recv_end"] = api.now

        machine.spawn(0, sender)
        machine.spawn(1, receiver)

    def result(self, machine, nodes, ctx) -> float:
        end = max(ctx["send_end"], ctx["recv_end"])
        return (end - ctx["t0"]) / self.count

    def check(self, result: float) -> Optional[str]:
        return _positive(result)


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------


class PingScenario(Scenario):
    """Figure-3 shape: a latency ladder, first node <-> last node."""

    name = "fig3"
    explore_params = {"sizes": (4, 64), "pings": 1}

    def __init__(self, sizes: Sequence[int] = (4, 64, 512),
                 pings: int = 3) -> None:
        self.sizes = tuple(sizes)
        self.pings = pings

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        n = machine.config.n_nodes
        src, dst = 0, n - 1
        schedule = [s for s in self.sizes for _ in range(self.pings)]
        src_comm = self._mpi(machine, ctx).rank(src)

        def pinger(api):
            rtts: List[Tuple[int, float]] = []
            ok = True
            for i, size in enumerate(schedule):
                payload = bytes((i + j) & 0xFF for j in range(size))
                t0 = api.now
                yield from src_comm.send(api, dst, payload, tag=1)
                _s, _t, back = yield from src_comm.recv(api, src=dst, tag=2)
                ok = ok and back == payload
                rtts.append((size, api.now - t0))
            ctx["rtts"] = rtts
            ctx["echo_ok"] = ok

        machine.spawn(src, pinger)
        dst_comm = self._mpi(machine, ctx).rank(dst)

        def echo(api):
            for _ in range(len(schedule)):
                _s, _t, data = yield from dst_comm.recv(api, src=src, tag=1)
                yield from dst_comm.send(api, src, data, tag=2)

        machine.spawn(dst, echo)

    def result(self, machine, nodes, ctx) -> Dict[str, Any]:
        return {"rtts": ctx.get("rtts"), "echo_ok": ctx.get("echo_ok")}

    def check(self, result: Dict[str, Any]) -> Optional[str]:
        if not result.get("echo_ok"):
            return "ping-pong payload corrupted"
        return None


class MixedScenario(Scenario):
    """Staggered all-to-all messaging (the determinism-suite pattern).

    Rank ``r`` sends ``rounds`` messages to ``(r + 1 + i) % n`` and then
    drains exactly the deliveries addressed to it, logging each arrival.
    """

    name = "mixed"

    def __init__(self, rounds: int = 6, payload: int = 16) -> None:
        self.rounds = rounds
        self.payload = payload

    def _incoming(self, rank: int, n: int) -> int:
        return sum(1 for sender in range(n) for i in range(self.rounds)
                   if (sender + 1 + i) % n == rank and rank != sender)

    def setup(self, phase: int, machine, nodes, ctx) -> None:
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

        for rank in nodes:
            machine.spawn(rank, worker, rank)

    def result(self, machine, nodes, ctx) -> List[Tuple]:
        return ctx.get("log", [])


class SyncScenario(Scenario):
    """Every rank: barrier, allreduce(rank + 1), barrier."""

    name = "sync"

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        mpi = self._mpi(machine, ctx)
        sums = ctx.setdefault("sums", {})

        def worker(api, rank):
            comm = mpi.rank(rank)
            yield from comm.barrier(api)
            total = yield from comm.allreduce(api, rank + 1, op="sum")
            yield from comm.barrier(api)
            sums[rank] = total

        for rank in nodes:
            machine.spawn(rank, worker, rank)

    def result(self, machine, nodes, ctx) -> Dict[int, Any]:
        return ctx.get("sums", {})

    def check(self, result: Dict[int, Any]) -> Optional[str]:
        n = len(result)
        if not n or any(v != n * (n + 1) // 2 for v in result.values()):
            return f"allreduce sums wrong: {result}"
        return None


class ChaosScenario(MixedScenario):
    """The mixed workload with fat-tree links failing mid-run.

    The plan downs the first ``n_links`` up-links (by name) of the
    middle switch one level below the top of the tree, then repairs
    them; traffic that routed through them must detour over the fat
    tree's path diversity.  The down/up timeline is static, so the run
    is deterministic.
    """

    name = "chaos"
    min_nodes = 3

    def __init__(self, down_ns: float = 40_000.0, up_ns: float = 200_000.0,
                 n_links: int = 2, **kw) -> None:
        super().__init__(**kw)
        self.down_ns = down_ns
        self.up_ns = up_ns
        self.n_links = n_links

    def victims(self, config: MachineConfig) -> List[str]:
        """The link names the fault plan downs."""
        from repro.net.topology import FatTreeTopology

        topo = FatTreeTopology(config.n_nodes, radix=config.network.radix,
                               seed=config.seed)
        level = topo.levels - 1
        if level < 1:
            raise ConfigError("chaos needs a fat tree of two or more levels")
        index = topo.switches_per_level // 2
        ups = sorted("sw%d.%d->sw%d.%d" % (level, index,
                                           *topo.up_target(level, index, b))
                     for b in range(topo.down_degree))
        return ups[:self.n_links]

    def prepare(self, config: MachineConfig) -> None:
        from repro.faults.plan import FaultPlan, LinkEvent

        if config.faults is not None:
            raise ConfigError("chaos scenario supplies its own fault plan")
        events = []
        for name in self.victims(config):
            events.append(LinkEvent(time_ns=self.down_ns, link=name,
                                    up=False))
            events.append(LinkEvent(time_ns=self.up_ns, link=name, up=True))
        config.faults = FaultPlan(seed=config.seed, link_events=events)


class GraphScenario(Scenario):
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

    def setup(self, phase: int, machine, nodes, ctx) -> None:
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
            for rank in nodes:
                machine.spawn(rank, bfs_worker, mpi.rank(rank), region,
                              adj, slices[rank].start, slices[rank].stop,
                              out)
            return
        expected = sequential_bfs(ctx["adj"])
        machine.spawn(0, bfs_verify, ctx["region"], expected, ctx["out"])

    def result(self, machine, nodes, ctx) -> Dict[str, Any]:
        out = ctx.get("out", {})
        return {"levels": out.get("levels"), "bfs_ok": out.get("bfs_ok"),
                "bad_vertices": out.get("bfs_bad_vertices")}

    def check(self, result: Dict[str, Any]) -> Optional[str]:
        if not result.get("bfs_ok"):
            return f"BFS distances wrong at {result.get('bad_vertices')}"
        return None


class HashScenario(Scenario):
    """Striped-lock shared hash table: phase 0 has every rank insert its
    key set under ticket locks; phase 1 looks every key back up."""

    name = "shm_hash"
    phases = 2
    explore_params = {"keys_per_rank": 2, "n_buckets": 8, "stripes": 2,
                      "lock_mode": "endpoint"}

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

    def setup(self, phase: int, machine, nodes, ctx) -> None:
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

            for rank in nodes:
                machine.spawn(rank, writer, rank)
            return
        found = ctx.setdefault("found", {})

        def reader(api, rank):
            ok = True
            for key in hash_keys_for_rank(rank, self.keys_per_rank):
                value = yield from table.lookup(api, key)
                ok = ok and value == hash_value_of(key)
            found[rank] = ok

        for rank in nodes:
            machine.spawn(rank, reader, rank)

    def result(self, machine, nodes, ctx) -> Dict[str, Any]:
        return {"inserted": ctx.get("inserted", {}),
                "found": ctx.get("found", {})}

    def check(self, result: Dict[str, Any]) -> Optional[str]:
        inserted = result.get("inserted") or {}
        found = result.get("found") or {}
        if not inserted or not all(inserted.values()):
            return f"hash-table inserts failed: {inserted}"
        if len(found) != len(inserted) or not all(found.values()):
            return f"hash-table lookups failed: {found}"
        return None


class PatternScenario(Scenario):
    """One sharing-pattern kernel (see
    :func:`repro.shm.workloads.pattern_worker`): every rank runs
    ``rounds`` rounds of the pattern's access mix; the result is the
    aggregate ns-per-access — the ``bench_shm`` sweep's data point."""

    name = "shm_patterns"
    phases = 1

    def __init__(self, pattern: str = "hotspot", rounds: int = 6) -> None:
        self.pattern = pattern
        self.rounds = rounds

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        from repro.shm.scoma import ScomaRegion
        from repro.shm.workloads import pattern_worker, private_offset

        n = machine.config.n_nodes
        region = ctx["region"] = ScomaRegion(machine)
        # line 0 is the shared line; each rank's private line is homed
        # at the rank
        blank = bytes(region.line_bytes)
        region.init_data(0, blank)
        for rank in range(n):
            region.init_data(private_offset(region, rank), blank)
        mpi = self._mpi(machine, ctx)
        out = ctx.setdefault("out", {})
        for rank in nodes:
            machine.spawn(rank, pattern_worker, mpi.rank(rank), region,
                          self.pattern, rank, n, self.rounds, out)

    def result(self, machine, nodes, ctx) -> Dict[str, Any]:
        from repro.shm.workloads import pattern_ns_per_access

        out = ctx.get("out", {})
        return {"pattern": self.pattern,
                "ns_per_access": pattern_ns_per_access(out),
                "ranks": len(out)}


class BurstScenario(Scenario):
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
        config.niu.queue_depth = self.queue_depth

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        n = machine.config.n_nodes
        grp = machine.sync_fabric().group(range(n), mode="endpoint")
        done = ctx.setdefault("done", {})

        def prog(api, rank):
            yield from grp.barrier(api, rank)
            done[rank] = True

        for rank in nodes:
            machine.spawn(rank, prog, rank)

    def result(self, machine, nodes, ctx) -> Dict[str, Any]:
        done = ctx.get("done", {})
        return {"done": dict(sorted(done.items())),
                "all_released": len(done) == machine.config.n_nodes}

    def check(self, result: Dict[str, Any]) -> Optional[str]:
        if not result.get("all_released"):
            return (f"barrier never released every rank: "
                    f"{sorted(result.get('done', {}))} done")
        return None


class TakeoverScenario(Scenario):
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

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        from repro.shm.scoma import ScomaRegion

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

            machine.spawn(0, home_writer)
            machine.spawn(1, thief)
            return
        region = ctx["region"]

        def reader(api):
            got = yield from api.load(region.addr(0), self.stores + 1)
            ctx["got"] = bytes(got)

        machine.spawn(0, reader)

    def result(self, machine, nodes, ctx) -> Dict[str, Any]:
        want = bytes(0xA0 + i for i in range(self.stores)) + b"\xbb"
        got = ctx.get("got", b"")
        return {"ok": got == want, "got": got.hex(), "want": want.hex()}

    def check(self, result: Dict[str, Any]) -> Optional[str]:
        if not result.get("ok"):
            return (f"home stores lost: line holds {result.get('got')!r}, "
                    f"expected {result.get('want')!r}")
        return None


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------

_REGISTRY = {cls.name: cls for cls in (
    ExpressScenario, BasicScenario, BasicStreamScenario, MpiPingPongScenario,
    CollectiveScenario, BlockTransferScenario, NumaReadScenario,
    ScomaReadScenario, TagOnScenario, PingScenario, MixedScenario, SyncScenario,
    ChaosScenario, GraphScenario, HashScenario, PatternScenario,
    BurstScenario, TakeoverScenario,
)}


def _ensure_traffic_scenarios() -> None:
    """Merge the traffic scenarios in on first lookup (lazy: the traffic
    package imports Scenario from here, so an eager import would be
    circular)."""
    if "traffic_kv" in _REGISTRY:
        return
    from repro.traffic.scenarios import TRAFFIC_SCENARIOS

    _REGISTRY.update(TRAFFIC_SCENARIOS)


def scenario(name: str, **kwargs: Any) -> Scenario:
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
