"""Main memory: DRAM behind the standard SMP memory controller.

A :class:`repro.bus.snoop.BusSlave` backed by real bytes.  Timing is the
classic first-beat / next-beat model: ``first_beat_cycles`` to the first
data beat, ``next_beat_cycles`` for each subsequent burst beat.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.bus.ops import BusTransaction
from repro.bus.snoop import BusSlave
from repro.common.config import BusConfig, DRAMConfig
from repro.mem.backing import ByteBacking

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.events import Event


class DRAM(BusSlave):
    """Byte-backed main memory serving single-beat and burst transactions."""

    def __init__(
        self,
        engine: "Engine",
        config: DRAMConfig,
        bus_config: BusConfig,
        base: int = 0,
        name: str = "dram",
    ) -> None:
        self.engine = engine
        self.config = config
        self.bus_config = bus_config
        self.base = base
        self.slave_name = name
        self.backing = ByteBacking(config.size_bytes, name=name)
        #: open row per bank (open-page model); -1 = bank closed.
        self._open_rows = [-1] * max(1, config.n_banks)
        self.row_hits = 0
        self.row_misses = 0

    # -- timing ------------------------------------------------------------

    def _first_beat_cycles(self, addr: int) -> int:
        """Row-buffer-aware first-beat latency (flat when disabled)."""
        cfg = self.config
        if not cfg.row_buffer:
            return cfg.first_beat_cycles
        row_no = (addr - self.base) // cfg.row_bytes
        bank = row_no % cfg.n_banks
        row = row_no // cfg.n_banks
        if self._open_rows[bank] == row:
            self.row_hits += 1
            return cfg.row_hit_first_beat_cycles
        self.row_misses += 1
        self._open_rows[bank] = row
        return cfg.first_beat_cycles

    def access_ns(self, beats: int, addr: int = None) -> float:  # type: ignore[assignment]
        """Data-tenure duration for ``beats`` beats at ``addr``."""
        if beats <= 0:
            return 0.0
        first = (self.config.first_beat_cycles if addr is None
                 else self._first_beat_cycles(addr))
        cycles = first + (beats - 1) * self.config.next_beat_cycles
        return cycles * self.bus_config.cycle_ns

    def _beats(self, txn: BusTransaction) -> int:
        if txn.op.is_burst:
            return self.bus_config.beats_per_line
        return 1

    # -- BusSlave ------------------------------------------------------------

    def access(
        self, txn: BusTransaction
    ) -> Generator["Event", None, Optional[bytes]]:
        """Serve one transaction's data tenure."""
        yield self.access_ns(self._beats(txn), txn.addr)
        offset = txn.addr - self.base
        if txn.op.is_write:
            assert txn.data is not None
            self.backing.write(offset, txn.data)
            return None
        if txn.op.is_read:
            return self.backing.read(offset, txn.size)
        return None  # KILL/FLUSH reach caches, not memory

    # -- zero-time debug/testing access (not bus-accurate) ---------------------

    def peek(self, addr: int, length: int) -> bytes:
        """Direct read of memory contents (testing/diagnostics only)."""
        return self.backing.read(addr - self.base, length)

    def poke(self, addr: int, data: bytes) -> None:
        """Direct write of memory contents (testing/initialization only)."""
        self.backing.write(addr - self.base, data)
