"""Discrete-event simulation kernel.

A minimal, deterministic SimPy-like core: an event-heap :class:`Engine`,
generator :class:`Process`\\ es, :class:`Event`/:class:`Timeout`
synchronization, arbitrated :class:`Resource`\\ s, bounded FIFO
:class:`Store`\\ s, and statistics/tracing infrastructure.  Everything in
the StarT-Voyager model is built from these pieces.
"""

from repro.sim.engine import Engine
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Interrupt, ProcGen, Process
from repro.sim.resource import PriorityResource, Resource
from repro.sim.stats import Accumulator, BusyTracker, Counter, StatsRegistry
from repro.sim.store import Store
from repro.sim.trace import Tracer

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Process",
    "ProcGen",
    "Interrupt",
    "Resource",
    "PriorityResource",
    "Store",
    "Counter",
    "Accumulator",
    "BusyTracker",
    "StatsRegistry",
    "Tracer",
]
