"""Machine configuration.

All timing and sizing parameters of the simulated StarT-Voyager cluster
live here, in one validated, immutable-ish tree of dataclasses.  Defaults
are the 1998-plausible values documented in DESIGN.md §5:

* aP / sP: PowerPC 604e at 166 MHz;
* memory bus: 66 MHz, 64-bit data path, 32-byte cache lines;
* Arctic network: 160 MB/s/direction/link, 96-byte packets, radix-4
  fat tree, two priorities;
* NIU: 16 hardware transmit + 16 hardware receive queues out of a larger
  logical namespace, dual-ported aSRAM/sSRAM, single-ported clsSRAM.

Every experiment records the ``MachineConfig`` it ran with so that results
are reproducible and parameter sweeps are explicit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.common.errors import ConfigError
from repro.common.units import KB, MB, is_power_of_two, mbps_to_ns_per_byte, mhz_to_ns
from repro.common.wire import MAX_NODE, MAX_PAYLOAD
from repro.faults.plan import FaultPlan


@dataclass
class ProcessorConfig:
    """A 604-class processor clock/cost model.

    The simulator does not emulate the PowerPC pipeline; it charges
    ``cpi`` cycles per "instruction" of modeled work.  This is the
    substitution DESIGN.md §2 documents for both the application
    processor (aP) and the NIU's embedded service processor (sP).
    """

    clock_mhz: float = 166.0
    #: average cycles per modeled instruction (compute work, not bus ops).
    cpi: float = 1.0

    @property
    def cycle_ns(self) -> float:
        """Clock period in nanoseconds."""
        return mhz_to_ns(self.clock_mhz)

    def insn_ns(self, n: int) -> float:
        """Simulated time to execute ``n`` instructions of straight-line code."""
        return n * self.cpi * self.cycle_ns

    def validate(self) -> None:
        if self.clock_mhz <= 0:
            raise ConfigError(f"processor clock must be positive: {self.clock_mhz}")
        if self.cpi <= 0:
            raise ConfigError(f"CPI must be positive: {self.cpi}")


@dataclass
class BusConfig:
    """The 60X-style coherent memory bus shared by aP, L2 and the NIU."""

    clock_mhz: float = 66.0
    #: data path width in bytes (64-bit bus).
    width_bytes: int = 8
    #: coherence granularity; the 604e uses 32-byte lines.
    line_bytes: int = 32
    #: bus cycles to win arbitration when the bus is free.
    arbitration_cycles: int = 1
    #: bus cycles for the address tenure (address + transfer attributes).
    address_cycles: int = 1
    #: bus cycles for the snoop response window.
    snoop_cycles: int = 1
    #: bus cycles a retried master waits before re-requesting.
    retry_backoff_cycles: int = 4
    #: hard cap on consecutive retries of one transaction (deadlock guard);
    #: 0 means unlimited.
    max_retries: int = 0

    @property
    def cycle_ns(self) -> float:
        """Bus clock period in nanoseconds."""
        return mhz_to_ns(self.clock_mhz)

    @property
    def beats_per_line(self) -> int:
        """Data beats needed to move one cache line."""
        return self.line_bytes // self.width_bytes

    def validate(self) -> None:
        if self.clock_mhz <= 0:
            raise ConfigError(f"bus clock must be positive: {self.clock_mhz}")
        if not is_power_of_two(self.width_bytes):
            raise ConfigError(f"bus width must be a power of two: {self.width_bytes}")
        if not is_power_of_two(self.line_bytes):
            raise ConfigError(f"line size must be a power of two: {self.line_bytes}")
        if self.line_bytes % self.width_bytes:
            raise ConfigError("line size must be a multiple of the bus width")
        for name in ("arbitration_cycles", "address_cycles", "snoop_cycles"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.retry_backoff_cycles < 1:
            raise ConfigError("retry backoff must be at least one cycle")


@dataclass
class DRAMConfig:
    """Main memory behind the standard SMP memory controller.

    An optional open-page (row buffer) model: an access to the currently
    open row of a bank pays ``row_hit_first_beat_cycles`` to the first
    beat instead of the full ``first_beat_cycles`` — sequential streams
    (block operations!) get most of the benefit.  Disabled by default so
    the shipped experiment numbers stay flat-timing; the X-abl ablations
    turn it on.
    """

    size_bytes: int = 8 * MB
    #: bus cycles from data tenure start to the first beat (row miss).
    first_beat_cycles: int = 6
    #: bus cycles per subsequent beat.
    next_beat_cycles: int = 1
    #: OS page size, the granularity of NIU block operations ("up to one
    #: aligned page").
    page_bytes: int = 4 * KB
    #: open-page policy (False = flat timing).
    row_buffer: bool = False
    #: DRAM row size and bank interleave granularity.
    row_bytes: int = 2 * KB
    n_banks: int = 4
    #: first-beat cycles when the access hits the open row.
    row_hit_first_beat_cycles: int = 3

    def validate(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigError("DRAM size must be positive")
        if not is_power_of_two(self.page_bytes):
            raise ConfigError("page size must be a power of two")
        if self.first_beat_cycles < 1 or self.next_beat_cycles < 1:
            raise ConfigError("DRAM beat timings must be at least one cycle")
        if self.row_buffer:
            if not is_power_of_two(self.row_bytes):
                raise ConfigError("DRAM row size must be a power of two")
            if self.n_banks < 1:
                raise ConfigError("DRAM needs at least one bank")
            if not (1 <= self.row_hit_first_beat_cycles
                    <= self.first_beat_cycles):
                raise ConfigError(
                    "row-hit latency must be between 1 and the miss latency"
                )


@dataclass
class CacheConfig:
    """The aP's in-line L2 cache (512 KB on the real machine)."""

    size_bytes: int = 512 * KB
    line_bytes: int = 32
    ways: int = 1
    #: bus cycles for a hit supplied by the cache model (used only for
    #: occupancy accounting; hits do not occupy the memory bus).
    hit_cycles: int = 1
    enabled: bool = True

    @property
    def n_lines(self) -> int:
        """Total line frames in the cache."""
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        """Number of sets given the associativity."""
        return self.n_lines // self.ways

    def validate(self) -> None:
        if not is_power_of_two(self.size_bytes):
            raise ConfigError("cache size must be a power of two")
        if not is_power_of_two(self.line_bytes):
            raise ConfigError("cache line size must be a power of two")
        if self.ways < 1 or self.n_lines % self.ways:
            raise ConfigError("cache associativity must divide the line count")
        if not is_power_of_two(self.n_sets):
            raise ConfigError("cache set count must be a power of two")


@dataclass
class NIUConfig:
    """The StarT-Voyager network interface unit (CTRL + BIUs + sP + SRAMs)."""

    #: hardware-resident transmit/receive queues in CTRL.
    n_hw_tx_queues: int = 16
    n_hw_rx_queues: int = 16
    #: size of the logical receive-queue namespace; queues beyond the
    #: hardware-cached set spill to the miss queue, serviced by firmware.
    n_logical_rx_queues: int = 256
    #: per-queue buffer capacity in messages.
    queue_depth: int = 16
    #: dual-ported SRAM sizes.
    asram_bytes: int = 128 * KB
    ssram_bytes: int = 128 * KB
    #: SRAM port access time in bus cycles.
    sram_cycles: int = 1
    #: IBus: 64-bit path clocked with the bus.
    ibus_width_bytes: int = 8
    #: depth of each CTRL command queue (2 local + 1 remote) in commands.
    cmdq_depth: int = 32
    #: depth of the rx miss/overflow queue in messages.
    missq_depth: int = 64
    #: CTRL internal pipeline latency per operation, in bus cycles.
    ctrl_op_cycles: int = 2

    def validate(self) -> None:
        if not (1 <= self.n_hw_tx_queues <= 64):
            raise ConfigError("hardware tx queue count out of range")
        if not (1 <= self.n_hw_rx_queues <= 64):
            raise ConfigError("hardware rx queue count out of range")
        if self.n_logical_rx_queues < self.n_hw_rx_queues:
            raise ConfigError("logical rx namespace smaller than hardware set")
        if self.queue_depth < 2 or not is_power_of_two(self.queue_depth):
            raise ConfigError("queue depth must be a power of two >= 2")
        if self.cmdq_depth < 1 or self.missq_depth < 1:
            raise ConfigError("command/miss queue depths must be positive")


@dataclass
class NetworkConfig:
    """The MIT Arctic fat-tree network."""

    #: link bandwidth per direction (paper: 160 MB/s/direction/link).
    link_mb_per_s: float = 160.0
    #: fixed fall-through latency of one Arctic switch.
    switch_latency_ns: float = 40.0
    #: wire/propagation latency per link hop.
    wire_latency_ns: float = 5.0
    #: switch radix (Arctic is a 4x4 packet-routing chip).
    radix: int = 4
    #: input buffering per (link, priority) in packets; bounds in-flight
    #: traffic and creates backpressure.
    buffer_packets: int = 4
    #: maximum packet size, header included (Arctic: 96 bytes).
    max_packet_bytes: int = 96
    #: packet header size (route, logical dst queue, priority, length ...).
    header_bytes: int = 8
    #: number of priority levels; the paper requires at least two.
    priorities: int = 2
    #: virtual cut-through forwarding (the real Arctic's mode): a switch
    #: may start forwarding once the header has arrived, so multi-hop
    #: latency pays full serialization once plus per-hop header time.
    #: False = store-and-forward (conservative default; the shipped
    #: experiment numbers use it).
    cut_through: bool = False
    #: switch-resident combining: how long a fetch-and-add combining slot
    #: stays open for later colliding requests before the combined packet
    #: is forwarded (Ultracomputer-style window).  Tree-mode collectives
    #: ignore it — they wait for their planned contribution count.
    combine_window_ns: float = 80.0
    #: per-packet processing latency of a switch's combining ALU stage,
    #: charged on top of the ordinary fall-through latency.
    combine_latency_ns: float = 15.0

    @property
    def ns_per_byte(self) -> float:
        """Serialization delay per byte on one link."""
        return mbps_to_ns_per_byte(self.link_mb_per_s)

    @property
    def max_payload_bytes(self) -> int:
        """Largest payload one packet can carry."""
        return self.max_packet_bytes - self.header_bytes

    def validate(self) -> None:
        if self.link_mb_per_s <= 0:
            raise ConfigError("link bandwidth must be positive")
        if self.radix < 2:
            raise ConfigError("switch radix must be at least 2")
        if self.priorities < 2:
            raise ConfigError("the paper requires at least two network priorities")
        if self.header_bytes >= self.max_packet_bytes:
            raise ConfigError("header cannot fill the whole packet")
        if self.buffer_packets < 1:
            raise ConfigError("links need at least one packet of buffering")
        if self.combine_window_ns < 0 or self.combine_latency_ns < 0:
            raise ConfigError("combining latencies must be non-negative")


@dataclass
class FirmwareCostConfig:
    """Instruction budgets for sP firmware handlers.

    These are the modeled costs of the firmware code paths that the real
    machine runs on its embedded 604.  They are deliberately explicit and
    centralized: the paper's experiments hinge on firmware occupancy, so
    these knobs are first-class experiment parameters.
    """

    #: dispatch loop: poll queues, decode message type, call handler.
    dispatch_insns: int = 40
    #: compose + launch one message from firmware.
    send_msg_insns: int = 60
    #: receive/drain one message in firmware.
    recv_msg_insns: int = 40
    #: set up one block-operation command (either block unit).
    block_setup_insns: int = 50
    #: DMA request parsing and per-page loop overhead.
    dma_request_insns: int = 120
    dma_per_page_insns: int = 80
    #: NUMA protocol: handle one aP bus op, one remote request, one reply.
    numa_local_insns: int = 150
    numa_home_insns: int = 180
    numa_reply_insns: int = 100
    #: S-COMA protocol handler costs.
    scoma_miss_insns: int = 160
    scoma_home_insns: int = 180
    scoma_fill_insns: int = 120
    #: clsSRAM state update issued from firmware (per line).
    cls_update_insns: int = 12
    #: rx miss-queue service: move one message to its DRAM-resident queue.
    missq_service_insns: int = 90
    #: CollectiveUnit: parse one aP collective request.
    coll_request_insns: int = 70
    #: CollectiveUnit: fold one contribution into the accumulator.
    coll_combine_insns: int = 30
    #: CollectiveUnit: forward the result one tree hop on the down sweep.
    coll_forward_insns: int = 45
    #: reliable delivery: wrap + launch one go-back-N segment.
    rel_send_insns: int = 70
    #: reliable delivery: receive one DATA segment (seq check + deliver).
    rel_data_insns: int = 55
    #: reliable delivery: process one cumulative ACK.
    rel_ack_insns: int = 35
    #: reliable delivery: one retransmit-timer firing (window walk).
    rel_timer_insns: int = 50
    #: repro.sync endpoint fallback: apply one fetch-and-add at a cell's
    #: home sP (decode, read-modify-write, compose reply).
    sync_cell_insns: int = 55
    #: repro.sync: inject one tagged packet toward the switch fabric
    #: (the NIC is the combining tree's leaf).
    sync_inject_insns: int = 35
    #: repro.sync central (hot-spot) barrier: count one arrival / send
    #: one release at the home sP.
    sync_barrier_insns: int = 40
    #: repro.traffic KV store: serve one get/put (decode, hash-table
    #: probe or install, compose reply).
    kv_op_insns: int = 90
    #: repro.traffic parameter server: fold one pushed gradient into a
    #: block accumulator.
    ps_push_insns: int = 60
    #: repro.traffic parameter server: apply the folded gradient and
    #: compose the per-contributor replies once a block's step is full.
    ps_apply_insns: int = 80
    #: repro.traffic microservice: fixed dispatch overhead of one stage
    #: (the request's own per-stage service time rides in the message).
    usvc_dispatch_insns: int = 50

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"firmware cost {f.name} must be non-negative")


@dataclass
class ReliabilityConfig:
    """The firmware go-back-N ack/retransmit protocol's knobs."""

    #: sender window (unacked segments in flight per destination); also
    #: the retransmit-buffer bound — sends past it backpressure in sP.
    window: int = 8
    #: initial retransmit timeout.
    timeout_ns: float = 30_000.0
    #: exponential backoff factor applied on every timer expiry.
    backoff: float = 2.0
    #: cap on the backed-off timeout.
    max_timeout_ns: float = 500_000.0

    def validate(self) -> None:
        if self.window < 1:
            raise ConfigError("reliability window must be at least 1")
        if self.timeout_ns <= 0:
            raise ConfigError("reliability timeout must be positive")
        if self.backoff < 1.0:
            raise ConfigError("reliability backoff factor must be >= 1")
        if self.max_timeout_ns < self.timeout_ns:
            raise ConfigError(
                "reliability max timeout cannot undercut the initial timeout"
            )


@dataclass
class MachineConfig:
    """Complete configuration of a StarT-Voyager cluster."""

    n_nodes: int = 2
    ap: ProcessorConfig = field(default_factory=ProcessorConfig)
    sp: ProcessorConfig = field(default_factory=ProcessorConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    l2: CacheConfig = field(default_factory=CacheConfig)
    niu: NIUConfig = field(default_factory=NIUConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    firmware: FirmwareCostConfig = field(default_factory=FirmwareCostConfig)
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    #: declarative fault schedule (None = the network never lies; the
    #: machine then builds with zero fault-path state).
    faults: Optional[FaultPlan] = None
    #: seed for any randomized choices (e.g. fat-tree up-link spreading).
    seed: int = 0
    #: S-COMA home node per covered line (None = round-robin by page).
    scoma_home_of: Optional[List[int]] = None
    #: runtime invariant checkers to install at machine assembly: a tuple
    #: of names from :data:`repro.analysis.sanitize.SANITIZER_NAMES`
    #: (``credit``, ``queue``, ``coherence``, ``deadlock``,
    #: ``combine``), or the
    #: string ``"all"``, or a comma-separated string.  Merged with the
    #: ``REPRO_SANITIZE`` environment variable; empty (the default)
    #: installs nothing and costs nothing.
    sanitize: Union[str, Tuple[str, ...]] = ()

    def validate(self) -> "MachineConfig":
        """Check cross-field consistency; returns self for chaining."""
        if self.n_nodes < 1:
            raise ConfigError("need at least one node")
        if self.n_nodes > MAX_NODE + 1:
            raise ConfigError(f"{self.n_nodes} nodes: node ids stop at "
                              f"{MAX_NODE} (repro.common.wire.MAX_NODE)")
        if not isinstance(self.sanitize, str):
            self.sanitize = tuple(self.sanitize)
        if self.scoma_home_of is not None:
            bad = [h for h in self.scoma_home_of
                   if not (0 <= h < self.n_nodes)]
            if bad:
                raise ConfigError(
                    f"scoma_home_of names nonexistent nodes: {bad[:4]}"
                )
        for sub in (self.ap, self.sp, self.bus, self.dram, self.l2, self.niu,
                    self.network, self.firmware, self.reliability):
            # timing fields reach the kernel as float sleeps: 40 must
            # run (and describe itself) exactly as 40.0
            for f in dataclasses.fields(sub):
                if f.name.endswith("_ns"):
                    setattr(sub, f.name, float(getattr(sub, f.name)))
            sub.validate()
        if self.faults is not None:
            self.faults.validate(self.n_nodes)
        if self.l2.line_bytes != self.bus.line_bytes:
            raise ConfigError("L2 line size must match the bus coherence line")
        if self.network.max_payload_bytes < MAX_PAYLOAD:
            raise ConfigError(
                f"a packet must carry the {MAX_PAYLOAD}-byte Basic payload "
                f"(repro.common.wire.MAX_PAYLOAD); this network carries "
                f"{self.network.max_payload_bytes}"
            )
        if self.dram.page_bytes % self.bus.line_bytes:
            raise ConfigError("page size must be a multiple of the line size")
        return self

    def describe(self) -> Dict[str, Any]:
        """Flat dict of every parameter, for experiment logs."""
        return dataclasses.asdict(self)

    def copy(self, **overrides: Any) -> "MachineConfig":
        """Deep copy with top-level field overrides."""
        dup = dataclasses.replace(
            self,
            ap=dataclasses.replace(self.ap),
            sp=dataclasses.replace(self.sp),
            bus=dataclasses.replace(self.bus),
            dram=dataclasses.replace(self.dram),
            l2=dataclasses.replace(self.l2),
            niu=dataclasses.replace(self.niu),
            network=dataclasses.replace(self.network),
            firmware=dataclasses.replace(self.firmware),
            reliability=dataclasses.replace(self.reliability),
            faults=None if self.faults is None else self.faults.copy(),
            scoma_home_of=(None if self.scoma_home_of is None
                           else list(self.scoma_home_of)),
        )
        return dataclasses.replace(dup, **overrides) if overrides else dup


def default_config(n_nodes: int = 2, **overrides: Any) -> MachineConfig:
    """The standard 1998-plausible configuration used throughout the repo."""
    cfg = MachineConfig(n_nodes=n_nodes, **overrides)
    return cfg.validate()
