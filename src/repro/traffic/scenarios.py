"""Registered scenarios for the traffic applications.

These plug the serving workloads into the same
:class:`~repro.scenarios.Scenario` machinery the platform scenarios
use, so the :mod:`repro.scenarios` runner (and therefore the benches,
the tests, the explorer and CI) can run them at any node count:

``traffic_kv``     open- or closed-loop KV store load (the arrival
                   schedules derive only from seed+node).
``traffic_train``  parameter-server or allreduce training steps.
``traffic_usvc``   microservice fan-out trees.

Every scenario seeds its load from ``config.seed`` unless given an
explicit ``seed``, so two runs of one config are identical and two
seeds give distinct schedules.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.scenarios import Scenario
from repro.traffic.load import (
    MmppArrivals,
    PoissonArrivals,
    TraceRecord,
    make_kv_trace,
    node_rng,
    node_slice,
)
from repro.traffic.slo import DEFAULT_SLO_NS


class KvScenario(Scenario):
    """The KV store under seeded open-loop (or closed-loop) load."""

    name = "traffic_kv"
    explore_params = {"per_node": 3, "rate_rps": 200_000.0, "n_keys": 16}

    def __init__(self, per_node: int = 8, rate_rps: float = 100_000.0,
                 n_keys: int = 256, skew: float = 1.1,
                 put_fraction: float = 0.25, range_fraction: float = 0.0,
                 value_bytes: int = 8, process: str = "poisson",
                 transport: str = "basic", reliable: bool = False,
                 slo_ns: float = DEFAULT_SLO_NS, seed: int = None,
                 closed_loop: bool = False, window: int = 4,
                 trace: List[TraceRecord] = None) -> None:
        self.per_node = per_node
        self.rate_rps = rate_rps
        self.n_keys = n_keys
        self.skew = skew
        self.put_fraction = put_fraction
        self.range_fraction = range_fraction
        self.value_bytes = value_bytes
        self.process = process
        self.transport = transport
        self.reliable = reliable
        self.slo_ns = slo_ns
        self.seed = seed
        self.closed_loop = closed_loop
        self.window = window
        #: an explicit replay trace overrides the generated schedules.
        self.trace = trace

    def _records(self, machine) -> List[TraceRecord]:
        if self.trace is not None:
            return self.trace
        seed = self.seed if self.seed is not None else machine.config.seed
        return make_kv_trace(
            machine.config.n_nodes, self.per_node, self.rate_rps,
            seed=seed, n_keys=self.n_keys, skew=self.skew,
            put_fraction=self.put_fraction,
            range_fraction=self.range_fraction,
            value_bytes=self.value_bytes, process=self.process)

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        from repro.traffic.kv import KvClient

        trace = self._records(machine)
        clients = ctx.setdefault("clients", [])
        for node in nodes:
            records = node_slice(trace, node)
            client = KvClient(machine, machine.node(node),
                              slo_ns=self.slo_ns, transport=self.transport,
                              reliable=self.reliable)
            clients.append(client)
            if self.closed_loop:
                machine.spawn(node, client.closed_loop(records, self.window))
            else:
                for prog in client.open_loop(records):
                    machine.spawn(node, prog)

    def result(self, machine, nodes, ctx) -> Dict[str, int]:
        clients = ctx.get("clients", [])
        return {
            "offered": sum(c.slo.offered.value for c in clients),
            "completed": sum(c.slo.completed.value for c in clients),
            "slo_violations": sum(c.slo.violations.value for c in clients),
        }

    def check(self, result: Dict[str, int]) -> Optional[str]:
        return _check_completed(result)


class TrainScenario(Scenario):
    """Synchronous training steps: parameter server or allreduce."""

    name = "traffic_train"

    def __init__(self, mode: str = "ps", algo: str = "tree",
                 n_blocks: int = 4, steps: int = 4,
                 reliable: bool = False, slo_ns: float = None) -> None:
        self.mode = mode
        self.algo = algo
        self.n_blocks = n_blocks
        self.steps = steps
        self.reliable = reliable
        self.slo_ns = slo_ns

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        from repro.traffic.train import DEFAULT_STEP_SLO_NS, TrainJob

        job = ctx.get("job")
        if job is None:
            slo = (self.slo_ns if self.slo_ns is not None
                   else DEFAULT_STEP_SLO_NS)
            job = ctx["job"] = TrainJob(
                machine, mode=self.mode, algo=self.algo,
                n_blocks=self.n_blocks, steps=self.steps, slo_ns=slo,
                reliable=self.reliable)
        for node in nodes:
            machine.spawn(node, job.worker(node))

    def result(self, machine, nodes, ctx) -> Dict[str, Any]:
        job = ctx.get("job")
        weights: Dict[int, int] = {}
        if job is not None and job.mode == "ps":
            for node in nodes:
                st = machine.node(node).sp.state.get("traffic")
                if st is not None:
                    weights.update(st.ps_weights)
        return {"steps": self.steps, "weights": weights}


class UsvcScenario(Scenario):
    """Open-loop microservice fan-out trees."""

    name = "traffic_usvc"

    def __init__(self, per_node: int = 4, rate_rps: float = 20_000.0,
                 depth: int = 2, fanout: int = 2, svc_insns: int = 200,
                 process: str = "poisson", reliable: bool = False,
                 slo_ns: float = None, seed: int = None) -> None:
        self.per_node = per_node
        self.rate_rps = rate_rps
        self.depth = depth
        self.fanout = fanout
        self.svc_insns = svc_insns
        self.process = process
        self.reliable = reliable
        self.slo_ns = slo_ns
        self.seed = seed

    def setup(self, phase: int, machine, nodes, ctx) -> None:
        from repro.traffic.usvc import DEFAULT_TREE_SLO_NS, UsvcClient

        n = machine.config.n_nodes
        seed = self.seed if self.seed is not None else machine.config.seed
        slo = (self.slo_ns if self.slo_ns is not None
               else DEFAULT_TREE_SLO_NS)
        clients = ctx.setdefault("clients", [])
        for node in nodes:
            if self.process == "mmpp":
                arrivals = MmppArrivals(self.rate_rps, seed=seed, node=node)
            else:
                arrivals = PoissonArrivals(self.rate_rps, seed=seed,
                                           node=node)
            entries = node_rng(seed, node, salt=5)
            records = [TraceRecord(t, node, "tree", entries.randrange(n), 0)
                       for t in arrivals.schedule(self.per_node)]
            client = UsvcClient(machine, machine.node(node),
                                depth=self.depth, fanout=self.fanout,
                                svc_insns=self.svc_insns, slo_ns=slo,
                                reliable=self.reliable)
            clients.append(client)
            for prog in client.open_loop(records):
                machine.spawn(node, prog)

    def result(self, machine, nodes, ctx) -> Dict[str, int]:
        clients = ctx.get("clients", [])
        return {
            "offered": sum(c.slo.offered.value for c in clients),
            "completed": sum(c.slo.completed.value for c in clients),
        }

    def check(self, result: Dict[str, int]) -> Optional[str]:
        return _check_completed(result)


def _check_completed(result: Dict[str, int]) -> Optional[str]:
    offered, completed = result.get("offered"), result.get("completed")
    if offered != completed or not offered:
        return f"only {completed}/{offered} requests completed"
    return None


#: merged into the scenario registry by repro.scenarios.
TRAFFIC_SCENARIOS = {
    KvScenario.name: KvScenario,
    TrainScenario.name: TrainScenario,
    UsvcScenario.name: UsvcScenario,
}
