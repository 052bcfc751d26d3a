"""Training traffic: parameter-server push/pull vs allreduce steps.

Two ways to run the same synchronous-SGD step shape, so the platform's
collective mechanisms can be compared under an application's traffic
pattern rather than a microbenchmark's:

* ``mode="ps"`` — each parameter block lives on a server sP
  (round-robin over the nodes); every worker pushes one gradient per
  block per step and waits for the updated weights.  The last push
  triggers the apply and an outcast broadcast to all contributors —
  the classic central-server hot spot.
* ``mode="allreduce"`` — the gradient sum runs through
  :class:`~repro.lib.mpi.MiniMPI` with ``algo`` choosing the machinery:
  ``"flat"``/``"tree"`` (pure point-to-point), ``"nic"``
  (firmware combining), or ``"switch"`` (Arctic in-network combining —
  the paper's headline mechanism).

Either way one *step* is the unit the SLO sees: ``offered`` counts
steps started, ``completed`` steps finished, and the latency
accumulator holds step times — so the ``traffic`` metrics section
reports training exactly like serving.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.common.errors import ConfigError
from repro.common.wire import PS_PUSH, PS_REP
from repro.lib.mpi import MiniMPI
from repro.mp.basic import BasicPort
from repro.niu.niu import SP_SERVICE_QUEUE
from repro.traffic.kv import RX_LOGICAL, TX_INDEX
from repro.traffic.slo import SloRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager
    from repro.node.ap import ApApi

#: default step SLO: a synchronous step that takes longer than this is
#: a straggler round (200 µs of simulated time).
DEFAULT_STEP_SLO_NS = 200_000.0


def block_home(block: int, n_nodes: int) -> int:
    """The parameter server owning ``block`` (round-robin layout)."""
    return block % n_nodes


class TrainJob:
    """A synchronous data-parallel training job across every node."""

    def __init__(self, machine: "StarTVoyager", *, mode: str = "ps",
                 algo: str = "tree", n_blocks: int = 4, steps: int = 4,
                 slo_ns: float = DEFAULT_STEP_SLO_NS) -> None:
        if mode not in ("ps", "allreduce"):
            raise ConfigError(f"unknown training mode {mode!r}")
        self.machine = machine
        self.mode = mode
        self.algo = algo
        self.n_blocks = n_blocks
        self.steps = steps
        self.slo_ns = slo_ns
        self.n_nodes = machine.config.n_nodes
        self._mpi = (MiniMPI(machine, algo=algo)
                     if mode == "allreduce" else None)

    def worker(self, node: int) -> Callable[["ApApi"], Generator]:
        """The aP training-loop program for one worker node."""
        if self.mode == "ps":
            return self._ps_worker(node)
        return self._allreduce_worker(node)

    # -- parameter server ------------------------------------------------------

    def _ps_worker(self, node: int) -> Callable[["ApApi"], Generator]:
        board = self.machine.node(node)
        port = BasicPort(board, TX_INDEX, RX_LOGICAL)
        slo = SloRecorder(board, "ps", self.slo_ns)

        def program(api: "ApApi"):
            for step in range(self.steps):
                t0 = api.now
                slo.offer()
                # a deterministic "gradient": worker and step flavored
                for block in range(self.n_blocks):
                    grad = node + step + block + 1
                    home = block_home(block, self.n_nodes)
                    yield from port.send_to(
                        api, home, SP_SERVICE_QUEUE,
                        PS_PUSH.pack(RX_LOGICAL, step, block, self.n_nodes,
                                     grad))
                # synchronous step: wait for every block's new weight
                for _ in range(self.n_blocks):
                    _src, payload = yield from port.recv(api)
                    PS_REP.unpack(payload)
                slo.complete(api.now - t0)

        return program

    # -- allreduce -------------------------------------------------------------

    def _allreduce_worker(self, node: int) -> Callable[["ApApi"], Generator]:
        board = self.machine.node(node)
        slo = SloRecorder(board, "ps", self.slo_ns)
        rank = self._mpi.rank(node)

        def program(api: "ApApi"):
            for step in range(self.steps):
                t0 = api.now
                slo.offer()
                for block in range(self.n_blocks):
                    grad = node + step + block + 1
                    yield from rank.allreduce(api, grad)
                slo.complete(api.now - t0)

        return program
