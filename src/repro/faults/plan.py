"""Declarative fault plans: what goes wrong, where, and when.

The paper's real Arctic network was engineered to be *reliable* — CRC
per packet, exhaustively verified switch silicon — precisely so that the
NIU firmware above it could be simple.  This module models the opposite
regime so the firmware reliability protocol (:mod:`repro.firmware.
reliable`) has something to survive: a :class:`FaultPlan` describes, up
front and declaratively, every fault the run will inject.

Determinism is the design center.  Fault decisions never consult a
global RNG or wall clock; every per-packet draw hashes ``(plan seed,
link identity, per-link packet ordinal)``, so the same plan on the same
workload produces the same faults — in-process, across processes, and
across ``run_sweep --jobs`` fan-out.  Timed events (link down/up, sP
stalls, node crashes) fire at fixed simulated times.

Fault classes:

* :class:`LinkFault` — per-link packet drop and corrupt probabilities,
  matched by ``fnmatch`` pattern over link names (``"*"`` = everywhere,
  ``"sw1.0->n1"`` = one specific hop);
* :class:`LinkEvent` — a link goes down (or comes back up) at a fixed
  time; routing re-computes around downed links (up/down re-routing);
* :class:`SpStall` — one node's firmware engine stops dispatching for a
  window (models a wedged/overloaded sP);
* :class:`NodeCrash` — a whole node fails silently at a fixed time: its
  aP programs die, its sP halts, its CTRL drops all arrivals.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass, field
from typing import List

from repro.common.errors import ConfigError

__all__ = [
    "FaultPlan",
    "LinkFault",
    "LinkEvent",
    "SpStall",
    "NodeCrash",
    "fault_hash01",
    "link_key",
]


def fault_hash01(key: int, ordinal: int, salt: int) -> float:
    """Deterministic uniform draw in [0, 1) from (key, ordinal, salt).

    The same integer-avalanche recipe the fat tree uses for up-link
    spreading: cheap, stateless, and identical on every host and in
    every process layout.
    """
    h = (key ^ (ordinal * 0x9E3779B1) ^ ((salt + 1) * 0xC2B2AE3D)) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0x165667B1) & 0xFFFFFFFF
    h ^= h >> 16
    return h / 4294967296.0


def link_key(seed: int, link_name: str) -> int:
    """Stable 32-bit fault-stream key for one link of one plan."""
    return zlib.crc32(f"{seed}:{link_name}".encode()) & 0xFFFFFFFF


@dataclass
class LinkFault:
    """Probabilistic per-packet faults on links matching ``pattern``."""

    #: fnmatch pattern over link names ("n0->sw1.0", "sw1.0->sw2.0", ...).
    pattern: str = "*"
    #: probability a packet vanishes on the wire.
    drop_p: float = 0.0
    #: probability a packet arrives with flipped bits (checksum catches it).
    corrupt_p: float = 0.0

    def validate(self) -> None:
        for name in ("drop_p", "corrupt_p"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ConfigError(f"LinkFault.{name} must be in [0, 1]: {p}")


@dataclass
class LinkEvent:
    """A link changes state at a fixed simulated time."""

    time_ns: float
    #: exact link name, or an fnmatch pattern (every match flips).
    link: str
    #: False = the link goes down; True = it comes back up.
    up: bool = False

    def validate(self) -> None:
        if self.time_ns < 0:
            raise ConfigError(f"LinkEvent.time_ns must be >= 0: {self.time_ns}")


@dataclass
class SpStall:
    """One node's firmware engine freezes for a window."""

    node: int
    time_ns: float
    duration_ns: float

    def validate(self, n_nodes: int) -> None:
        if not (0 <= self.node < n_nodes):
            raise ConfigError(f"SpStall.node {self.node} does not exist")
        if self.time_ns < 0 or self.duration_ns <= 0:
            raise ConfigError("SpStall needs time_ns >= 0 and duration_ns > 0")
        # the stall handler sleeps for it, and sleeps are floats
        self.duration_ns = float(self.duration_ns)


@dataclass
class NodeCrash:
    """A whole node fails silently at a fixed simulated time."""

    node: int
    time_ns: float

    def validate(self, n_nodes: int) -> None:
        if not (0 <= self.node < n_nodes):
            raise ConfigError(f"NodeCrash.node {self.node} does not exist")
        if self.time_ns < 0:
            raise ConfigError(f"NodeCrash.time_ns must be >= 0: {self.time_ns}")


@dataclass
class FaultPlan:
    """The complete declarative fault schedule of one run.

    Attach to :class:`~repro.common.config.MachineConfig` via the
    ``faults`` field; the machine assembly arms a
    :class:`~repro.faults.inject.FaultInjector` at build time.  With no
    plan attached nothing in the data plane changes — the hot paths
    check a single ``is None`` attribute.
    """

    #: seed for every probabilistic draw (independent of the machine's
    #: routing seed, so fault streams can vary while routes stay put).
    seed: int = 0
    link_faults: List[LinkFault] = field(default_factory=list)
    link_events: List[LinkEvent] = field(default_factory=list)
    sp_stalls: List[SpStall] = field(default_factory=list)
    node_crashes: List[NodeCrash] = field(default_factory=list)

    # -- convenience constructors -----------------------------------------

    @classmethod
    def uniform_loss(cls, drop_p: float, corrupt_p: float = 0.0,
                     seed: int = 0) -> "FaultPlan":
        """Every link drops/corrupts packets with the given probabilities."""
        return cls(seed=seed, link_faults=[
            LinkFault(pattern="*", drop_p=drop_p, corrupt_p=corrupt_p)
        ])

    # -- config-tree integration ------------------------------------------

    def validate(self, n_nodes: int) -> None:
        for lf in self.link_faults:
            lf.validate()
        for ev in self.link_events:
            ev.validate()
        for st in self.sp_stalls:
            st.validate(n_nodes)
        for cr in self.node_crashes:
            cr.validate(n_nodes)

    def copy(self) -> "FaultPlan":
        """Deep copy (MachineConfig.copy duplicates the plan with this)."""
        return FaultPlan(
            seed=self.seed,
            link_faults=[dataclasses.replace(f) for f in self.link_faults],
            link_events=[dataclasses.replace(e) for e in self.link_events],
            sp_stalls=[dataclasses.replace(s) for s in self.sp_stalls],
            node_crashes=[dataclasses.replace(c) for c in self.node_crashes],
        )
