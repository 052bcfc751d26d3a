"""NIC-offloaded collective communication (the layer-1 extension story).

StarT-Voyager's thesis is that a programmable NIU lets new communication
mechanisms be added without touching the aP or the core hardware.  This
package exercises that claim end to end: collective operations (barrier,
broadcast, allreduce) move off the host into sP firmware that sums
contributions as they arrive and forwards one message per tree edge —
the aP issues a single enqueue and a single dequeue per collective
instead of O(N) point-to-point messages.  Every collective is rooted at
rank 0, and every reduction is a sum.

Three layers, lowest first (the ``COLL`` message layout they share is
declared in :mod:`repro.common.wire`):

* :mod:`repro.collectives.plan` — the pure-data binomial spanning tree
  rooted at rank 0 and the recursive-doubling schedule; unit-testable
  without the simulator;
* :mod:`repro.collectives.firmware` — the ``CollectiveUnit`` sP firmware
  (combining state, arrival counters, tree forwarding), loaded on every
  sP by the default firmware image at machine build;
* :mod:`repro.collectives.api` — host-side tree algorithms over mini-MPI
  point-to-point (the ``algo="tree"`` middle ground).

:class:`repro.lib.mpi.MiniMPI` selects between them with its ``algo=``
switch (``"flat"`` / ``"tree"`` / ``"nic"``, plus ``"switch"`` for the
in-fabric :mod:`repro.sync` tree); a communicator runs every collective
on its one family.
"""

from repro.collectives.plan import (
    RdSchedule,
    TreePlan,
    binomial_tree,
    recursive_doubling,
)

__all__ = [
    "TreePlan",
    "RdSchedule",
    "binomial_tree",
    "recursive_doubling",
]
