"""One StarT-Voyager node: an unmodified two-slot 604e SMP board with the
NIU in the second processor slot.

Assembles Figure 2 of the paper: the aP with its in-line L2, the
standard memory controller and DRAM, and the NIU — all sharing one
coherent memory bus.  Also carves the DRAM layout:

* ``[0, user_end)``              — ordinary user/OS memory;
* ``[user_end, +numa_bytes)``    — NUMA home backing frames (reached
  only by NIU bus mastering on behalf of remote nodes);
* top ``scoma_bytes``            — the S-COMA window: local DRAM used as
  an L3 cache, covered by the clsSRAM check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.bus.bus import MemoryBus
from repro.common.config import MachineConfig
from repro.common.errors import ConfigError
from repro.mem.address import MODE_CACHED, AddressMap, Region
from repro.mem.cache import SnoopingL2
from repro.mem.dram import DRAM
from repro.niu.niu import NIU
from repro.node.ap import AppProcessor

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import NetworkPort
    from repro.sim.engine import Engine
    from repro.sim.stats import StatsRegistry
    from repro.sim.trace import Tracer


class NodeBoard:
    """One complete node: aP + L2 + DRAM + memory controller + NIU."""

    def __init__(
        self,
        engine: "Engine",
        config: MachineConfig,
        node_id: int,
        net_port: Optional["NetworkPort"],
        stats: "StatsRegistry",
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.node_id = node_id
        self.stats = stats
        self.tracer = tracer

        dram_size = config.dram.size_bytes
        quarter = dram_size // 4
        self.scoma_bytes = min(quarter, 1 << 20)
        self.numa_bytes = min(quarter, 1 << 20)
        self.scoma_base = dram_size - self.scoma_bytes
        self.numa_backing_base = self.scoma_base - self.numa_bytes
        self.user_dram_bytes = self.numa_backing_base
        if self.user_dram_bytes <= 0:
            raise ConfigError("DRAM too small for the NUMA/S-COMA carve-outs")

        self.address_map = AddressMap()
        self.dram = DRAM(engine, config.dram, config.bus, base=0,
                         name=f"dram{node_id}")
        # three views of the one DRAM, differing only in NIU treatment
        self.address_map.add(Region("dram", 0, self.user_dram_bytes,
                                    MODE_CACHED, owner=self.dram))
        self.address_map.add(Region("dram.numa_backing",
                                    self.numa_backing_base, self.numa_bytes,
                                    MODE_CACHED, owner=self.dram))
        self.address_map.add(Region("dram.scoma", self.scoma_base,
                                    self.scoma_bytes, MODE_CACHED,
                                    owner=self.dram))

        self.bus = MemoryBus(engine, config.bus, self.address_map,
                             stats=stats, tracer=tracer, name=f"bus{node_id}")
        self.l2 = SnoopingL2(engine, config.l2, self.bus, self.dram,
                             name=f"l2.{node_id}")
        self.niu = NIU(engine, config, node_id, self.bus, self.address_map,
                       net_port, stats, self.scoma_base, self.scoma_bytes,
                       tracer=tracer)
        self.ap = AppProcessor(self)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Start the NIU's engines (the aP runs programs on demand)."""
        self.niu.start()

    # -- convenience --------------------------------------------------------

    @property
    def sp(self):
        """The NIU's service processor."""
        return self.niu.sp

    @property
    def ctrl(self):
        """The NIU's CTRL ASIC."""
        return self.niu.ctrl

    def peek_coherent(self, addr: int, length: int) -> bytes:
        """Untimed coherent read: modified L2 lines override DRAM.

        Testing/verification helper — what a flush-then-read would see.
        """
        line = self.config.bus.line_bytes
        out = bytearray(self.dram.peek(addr, length))
        start = addr - (addr % line)
        for base in range(start, addr + length, line):
            frame = self.l2._find(base)
            if frame is not None and frame.state.value == "M":
                lo = max(base, addr)
                hi = min(base + line, addr + length)
                out[lo - addr : hi - addr] = frame.data[lo - base : hi - base]
        return bytes(out)
