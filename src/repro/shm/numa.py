"""User-level NUMA shared memory.

The NUMA global region is a flat address space carved across the nodes'
home backing windows; programs simply load and store global addresses —
the aBIU and firmware do the rest.  This module is only address
arithmetic and convenience wrappers; no mechanism lives here (that is
the point: NUMA applications need no library calls at all).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.common.errors import ProgramError
from repro.firmware.numa import NumaMap

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager
    from repro.node.ap import ApApi
    from repro.sim.events import Event


class NumaSpace:
    """Handle on the cluster's NUMA global address space."""

    def __init__(self, machine: "StarTVoyager") -> None:
        node0 = machine.node(0)
        self.machine = machine
        self.map = NumaMap(machine.config.n_nodes, node0.numa_bytes,
                           node0.numa_backing_base)

    def addr(self, home: int, offset: int) -> int:
        """Global address of ``offset`` within ``home``'s backing."""
        return self.map.global_addr(home, offset)

    # -- convenience wrappers (just api.load/store on global addresses) ------

    def read(self, api: "ApApi", home: int, offset: int, size: int
             ) -> Generator["Event", None, bytes]:
        """Load ``size`` (<= 8) bytes from a NUMA location."""
        if size > 8:
            raise ProgramError("NUMA accesses are single-beat (<= 8 bytes)")
        return (yield from api.load(self.addr(home, offset), size))

    def write(self, api: "ApApi", home: int, offset: int, data: bytes
              ) -> Generator["Event", None, None]:
        """Store ``data`` (<= 8 bytes) to a NUMA location."""
        if len(data) > 8:
            raise ProgramError("NUMA accesses are single-beat (<= 8 bytes)")
        yield from api.store(self.addr(home, offset), data)

    def home_peek(self, home: int, offset: int, size: int) -> bytes:
        """Untimed read of the home backing (testing/verification)."""
        node = self.machine.node(home)
        local = self.map.backing_addr(self.addr(home, offset))
        return node.dram.peek(local, size)
