"""NIU card assembly: one StarT-Voyager network interface unit.

Builds and wires the pieces of Figure 2 of the paper: the CTRL ASIC, the
aBIU and sBIU FPGAs (as handler registries), the embedded service
processor, the dual-ported aSRAM/sSRAM, the clsSRAM, and the TxU/RxU
paths to the Arctic port — then lays out the default queue plan and
installs the default aBIU state machines.

Default queue plan (hardware queues; logical receive ids are per-node):

========= ====== ======================================================
tx queue  bank   use
========= ====== ======================================================
0..3      aSRAM  aP general-purpose (Basic/TagOn messages)
4         aSRAM  aP Express transmit
5         sSRAM  sP firmware general transmit
6         sSRAM  sP firmware protocol transmit (high priority)
========= ====== ======================================================

========= ======= ======== ============================================
rx slot   logical bank     use
========= ======= ======== ============================================
0..3      0..3    aSRAM    aP general-purpose receive
4         4       aSRAM    aP Express receive
5         5       sSRAM    sP service queue (DMA requests, ...)
6         6       sSRAM    sP protocol queue (coherence traffic)
7         7       aSRAM    block-transfer completion notifications
========= ======= ======== ============================================

Virtual destinations follow ``vdst = node*16 + logical_queue`` — the
machine assembly installs translation-table entries for every reachable
(node, queue) pair, and per-queue AND/OR masks can then confine a tx
queue to a node or queue subset.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.common.config import MachineConfig
from repro.common.errors import ConfigError
from repro.mem.address import (
    ASRAM_BASE,
    MODE_BURST,
    MODE_CACHED,
    MODE_UNCACHED,
    NIU_CTL_BASE,
    NUMA_BASE,
    NUMA_SIZE,
    AddressMap,
    Region,
)
from repro.mem.sram import DualPortedSRAM
from repro.niu.abiu import ABiu
from repro.niu.clssram import ClsSram, install_scoma_default_table
from repro.niu.cmdproc import BlockReadUnit, BlockTxUnit, CommandProcessor
from repro.niu.ctrl import Ctrl
from repro.niu.handlers import (
    EXPRESS_WINDOW_BYTES,
    ExpressRxHandler,
    ExpressTxHandler,
    NumaHandler,
    PointerWindowHandler,
    ScomaHandler,
    SramWindowHandler,
    SysregHandler,
)
from repro.niu.msgformat import ENTRY_BYTES
from repro.niu.queues import BANK_A, BANK_S, FullPolicy, QueueState
from repro.niu.sbiu import SBiu
from repro.niu.sp import ServiceProcessor

if TYPE_CHECKING:  # pragma: no cover
    from repro.bus.bus import MemoryBus
    from repro.net.network import NetworkPort
    from repro.sim.engine import Engine
    from repro.sim.stats import StatsRegistry
    from repro.sim.trace import Tracer

# -- queue plan constants ------------------------------------------------------

N_AP_TX = 4
EXPRESS_TX_IDX = 4
SP_TX_GENERAL = 5
SP_TX_PROTOCOL = 6

N_AP_RX = 4
EXPRESS_RX_LOGICAL = 4
SP_SERVICE_QUEUE = 5
SP_PROTOCOL_QUEUE = 6
NOTIFY_QUEUE = 7
#: sP-owned bulk-data queue (Approach-2 chunks land here; firmware reads
#: descriptors only and moves the payload bytes by command).
SP_BULK_QUEUE = 8
#: sP-owned reliable-delivery queue: go-back-N DATA segments from remote
#: reliability firmware land here (acks ride the protocol queue).
SP_REL_QUEUE = 9
#: sP-owned reliable-transmit queue: the aP's reliable-send requests
#: loop back into this queue; firmware drains it only while the go-back-N
#: window has room, so a full window backpressures the aP end to end
#: (kept separate from SP_REL_QUEUE — a stalled local sender must never
#: head-of-line-block incoming DATA, or two windowed peers deadlock).
SP_REL_TX_QUEUE = 10

#: window offsets inside the NIU control area.
PTR_WINDOW_OFF = 0x000000
PTR_WINDOW_SIZE = 0x1000
EXPRESS_TX_OFF = 0x100000
EXPRESS_RX_OFF = 0x200000
EXPRESS_RX_SIZE = 0x1000
SYSREG_OFF = 0x300000
SYSREG_SIZE = 0x1000


def vdst_for(node: int, logical_queue: int) -> int:
    """The virtual-destination byte addressing (node, logical queue)."""
    if not (0 <= node < 16) or not (0 <= logical_queue < 16):
        raise ConfigError(
            "the default vdst convention supports 16 nodes x 16 queues; "
            f"got node {node}, queue {logical_queue}"
        )
    return node * 16 + logical_queue


def needs_raw_addressing(n_nodes: int) -> bool:
    """True when a machine exceeds the byte-vdst translation convention.

    The one-byte vdst field packs ``node*16 + queue``, so translated
    addressing tops out at 16 nodes.  Larger machines run kernel-mode
    RAW addressing instead: the header carries the physical node and
    logical queue directly and the machine assembly marks every tx queue
    ``allow_raw`` (single-job kernel mode — per-queue translation
    protection is a 16-node-scale feature of the model).  Past 256
    nodes the encoders switch the header to wide (16-bit) node numbers
    — see :mod:`repro.niu.msgformat`.
    """
    return n_nodes > 16


class _Bump:
    """Tiny bump allocator for SRAM layout."""

    def __init__(self, size: int, name: str) -> None:
        self.next = 0
        self.size = size
        self.name = name

    def take(self, nbytes: int, align: int = 64) -> int:
        self.next = (self.next + align - 1) & ~(align - 1)
        off = self.next
        self.next += nbytes
        if self.next > self.size:
            raise ConfigError(f"{self.name}: SRAM layout overflow ({self.next} > {self.size})")
        return off


class NIU:
    """One node's complete network interface unit."""

    def __init__(
        self,
        engine: "Engine",
        config: MachineConfig,
        node_id: int,
        bus: "MemoryBus",
        address_map: AddressMap,
        net_port: Optional["NetworkPort"],
        stats: "StatsRegistry",
        dram_scoma_base: int,
        dram_scoma_bytes: int,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.node_id = node_id
        self.bus = bus
        self.address_map = address_map
        self.stats = stats
        self.tracer = tracer
        ncfg = config.niu
        sram_ns = ncfg.sram_cycles * config.bus.cycle_ns

        self.asram = DualPortedSRAM(engine, ncfg.asram_bytes, sram_ns,
                                    name=f"asram{node_id}")
        self.ssram = DualPortedSRAM(engine, ncfg.ssram_bytes, sram_ns,
                                    name=f"ssram{node_id}")
        self._alloc_a = _Bump(ncfg.asram_bytes, f"asram{node_id}")
        self._alloc_s = _Bump(ncfg.ssram_bytes, f"ssram{node_id}")

        # translation table occupies the bottom of sSRAM
        table_base = self._alloc_s.take(256 * 8)
        self.ctrl = Ctrl(engine, config, node_id, self.asram, self.ssram,
                         net_port, table_base, stats, tracer=tracer)

        # block units + command processors
        self.ctrl.block_read_unit = BlockReadUnit(self.ctrl)
        self.ctrl.block_tx_unit = BlockTxUnit(self.ctrl)
        self.cmd_processors = [CommandProcessor(self.ctrl, i) for i in range(4)]

        # clsSRAM covering the S-COMA window of DRAM
        line = config.bus.line_bytes
        self.cls = ClsSram(dram_scoma_base, dram_scoma_bytes // line, line)
        install_scoma_default_table(self.cls)
        self.ctrl.cls = self.cls

        # the two BIUs and the service processor
        self.abiu = ABiu(engine, bus, self.ctrl, node_id)
        self.sbiu = SBiu(engine, config, self.ctrl, self.ssram, node_id)
        self.sp = ServiceProcessor(engine, config.sp, config.firmware,
                                   self.sbiu, self.ctrl, stats, node_id,
                                   tracer=tracer)

        self._build_queues()
        self._install_windows(dram_scoma_base, dram_scoma_bytes)
        self._started = False

    # -- queue layout ----------------------------------------------------------

    def _add_queue(self, kind: str, bank: int, logical: Optional[int] = None
                   ) -> QueueState:
        alloc = self._alloc_a if bank == BANK_A else self._alloc_s
        depth = self.config.niu.queue_depth
        base = alloc.take(depth * ENTRY_BYTES)
        if kind == "tx":
            q = self.ctrl.add_tx_queue(bank, base, depth)
        else:
            q = self.ctrl.add_rx_queue(bank, base, depth, logical)
        q.shadow_offset = alloc.take(8, align=8)
        return q

    def _build_queues(self) -> None:
        for _ in range(N_AP_TX):
            self._add_queue("tx", BANK_A)
        self._add_queue("tx", BANK_A)  # express tx
        self._add_queue("tx", BANK_S)  # sP general
        q = self._add_queue("tx", BANK_S)  # sP protocol
        q.priority = 0
        for i in range(N_AP_TX):
            self.ctrl.tx_queues[i].priority = 1
        self.ctrl.tx_queues[EXPRESS_TX_IDX].priority = 1
        self.ctrl.tx_queues[SP_TX_GENERAL].priority = 1

        for logical in range(N_AP_RX):
            q = self._add_queue("rx", BANK_A, logical)
            # user queues backpressure the network rather than spilling
            # into the firmware miss queue; DIVERT/DROP remain per-queue
            # options for the queue-caching experiments
            q.full_policy = FullPolicy.BLOCK
        self._add_queue("rx", BANK_A, EXPRESS_RX_LOGICAL).full_policy = \
            FullPolicy.BLOCK
        for logical in (SP_SERVICE_QUEUE, SP_PROTOCOL_QUEUE, SP_BULK_QUEUE,
                        SP_REL_QUEUE, SP_REL_TX_QUEUE):
            q = self._add_queue("rx", BANK_S, logical)
            q.interrupt_on_arrival = True
        # bulk data must never divert to the miss queue: backpressure the
        # (low-priority) network instead.  Same for the reliable queues:
        # DATA segments backpressure the fabric, and reliable-send
        # requests backpressure the aP's loopback path (the protocol's
        # flow control depends on it).
        for logical in (SP_BULK_QUEUE, SP_REL_QUEUE, SP_REL_TX_QUEUE):
            self.ap_rx_slot(logical).full_policy = FullPolicy.BLOCK
        self._add_queue("rx", BANK_A, NOTIFY_QUEUE).full_policy = \
            FullPolicy.BLOCK

    # -- address windows & default handlers ----------------------------------------

    def _install_windows(self, scoma_base: int, scoma_bytes: int) -> None:
        add, install = self.address_map.add, self.abiu.install
        ncfg = self.config.niu

        ptr_region = add(Region(f"niu{self.node_id}.ptr",
                                NIU_CTL_BASE + PTR_WINDOW_OFF,
                                PTR_WINDOW_SIZE, MODE_UNCACHED))
        install(ptr_region, PointerWindowHandler(self.ctrl, ptr_region))

        asram_region = add(Region(f"niu{self.node_id}.asram", ASRAM_BASE,
                                  ncfg.asram_bytes, MODE_BURST))
        install(asram_region, SramWindowHandler(self.asram, asram_region))

        extx_region = add(Region(f"niu{self.node_id}.extx",
                                 NIU_CTL_BASE + EXPRESS_TX_OFF,
                                 EXPRESS_WINDOW_BYTES, MODE_UNCACHED))
        install(extx_region, ExpressTxHandler(
            self.ctrl, extx_region, self.ctrl.tx_queues[EXPRESS_TX_IDX]))

        exrx_region = add(Region(f"niu{self.node_id}.exrx",
                                 NIU_CTL_BASE + EXPRESS_RX_OFF,
                                 EXPRESS_RX_SIZE, MODE_UNCACHED))
        express_rx_slot = self.ctrl.rx_cache.resident()[EXPRESS_RX_LOGICAL]
        install(exrx_region, ExpressRxHandler(
            self.ctrl, exrx_region, self.ctrl.rx_queues[express_rx_slot]))

        regmap: Dict[int, str] = {
            q * 8: f"tx_priority.{q}"
            for q in range(self.config.niu.n_hw_tx_queues)
        }
        sysreg_region = add(Region(f"niu{self.node_id}.sysregs",
                                   NIU_CTL_BASE + SYSREG_OFF,
                                   SYSREG_SIZE, MODE_UNCACHED))
        install(sysreg_region, SysregHandler(self.ctrl, sysreg_region, regmap))

        # shared-memory handlers: the 1 GB NUMA window and the S-COMA
        # check over its DRAM window (the DRAM region itself is owned by
        # the memory controller; ScomaHandler only retries/forwards).
        numa_region = add(Region(f"niu{self.node_id}.numa", NUMA_BASE,
                                 NUMA_SIZE, MODE_UNCACHED))
        self.numa_handler = NumaHandler(self.ctrl, numa_region)
        install(numa_region, self.numa_handler)

        scoma_region = Region(f"niu{self.node_id}.scoma", scoma_base,
                              scoma_bytes, MODE_CACHED)
        self.scoma_handler = ScomaHandler(self.ctrl, self.cls,
                                          self.config.bus.line_bytes)
        install(scoma_region, self.scoma_handler)

    # -- SRAM staging allocators (mechanism/library layer) -----------------------------

    def alloc_asram(self, nbytes: int, align: int = 64) -> int:
        """Reserve aSRAM staging space (returns the bank offset)."""
        return self._alloc_a.take(nbytes, align)

    def alloc_ssram(self, nbytes: int, align: int = 64) -> int:
        """Reserve sSRAM staging space (returns the bank offset)."""
        return self._alloc_s.take(nbytes, align)

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn every engine: CTRL, command processors, block units, sP."""
        if self._started:
            return
        self._started = True
        self.ctrl.start()
        for proc in self.cmd_processors:
            proc.start()
        self.ctrl.block_read_unit.start()
        self.ctrl.block_tx_unit.start()
        self.sp.start()

    # -- convenience accessors ---------------------------------------------------------

    def ap_rx_slot(self, logical: int) -> QueueState:
        """Hardware receive queue currently caching ``logical``."""
        slot = self.ctrl.rx_cache.resident().get(logical)
        if slot is None:
            raise ConfigError(f"logical rx queue {logical} is not resident")
        return self.ctrl.rx_queues[slot]
