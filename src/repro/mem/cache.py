"""The aP's snooping write-back L2 cache.

An MSI write-back cache between the application processor and the memory
bus (the real machine's 512 KB in-line L2).  The aP's cached loads and
stores enter here; misses become READ_LINE / RWITM bus transactions, a
store hit in Shared upgrades with a KILL, and dirty evictions write back
with WRITE_LINE.

Snooping model (documented approximation): this cache never *intervenes*
in another master's data tenure.  When it snoops a foreign transaction
that touches a line it holds Modified, it pushes the line into DRAM's
backing store at snoop time (zero simulated cost) and downgrades, so the
memory controller always serves current data.  The real 60X would retry
or intervene; collapsing that into a reflective push preserves data
correctness and the bus-crossing counts the experiments measure, at the
cost of a few cycles of absolute accuracy per conflict.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple

from repro.bus.ops import BusOpType, BusTransaction
from repro.bus.snoop import Snooper, SnoopResult
from repro.coherence.protocol import l2_snoop_reaction
from repro.common.config import CacheConfig
from repro.common.errors import ProgramError

if TYPE_CHECKING:  # pragma: no cover
    from repro.bus.bus import MemoryBus
    from repro.mem.dram import DRAM
    from repro.sim.engine import Engine
    from repro.sim.events import Event


class LineState(enum.Enum):
    """MSI coherence states."""

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


class CacheLine:
    """One line frame: tag, state, data, LRU stamp."""

    __slots__ = ("tag", "state", "data", "lru")

    def __init__(self, line_bytes: int) -> None:
        self.tag: int = -1
        self.state = LineState.INVALID
        self.data = bytearray(line_bytes)
        self.lru = 0


class SnoopingL2(Snooper):
    """Set-associative write-back MSI cache attached to one memory bus."""

    def __init__(
        self,
        engine: "Engine",
        config: CacheConfig,
        bus: "MemoryBus",
        dram: "DRAM",
        name: str = "l2",
    ) -> None:
        self.engine = engine
        self.config = config
        self.bus = bus
        self.dram = dram
        self.name = name
        self.snooper_name = name
        #: set index -> its frames, both created on first fill (DESIGN.md
        #: §8.4).  A frame not yet created behaves exactly like an INVALID
        #: one at the end of its set, so hits, victims and LRU order
        #: match a cache built in full up front.
        self._sets: Dict[int, List[CacheLine]] = {}
        self._lru_clock = 0
        # statistics
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.snoop_pushes = 0
        self.upgrades = 0
        bus.attach_snooper(self)

    # -- indexing -----------------------------------------------------------

    def _index(self, addr: int) -> Tuple[int, int]:
        line = addr // self.config.line_bytes
        return line % self.config.n_sets, line // self.config.n_sets

    def _find(self, addr: int) -> Optional[CacheLine]:
        set_idx, tag = self._index(addr)
        for frame in self._sets.get(set_idx, ()):
            if frame.state is not LineState.INVALID and frame.tag == tag:
                return frame
        return None

    def _victim(self, set_idx: int) -> CacheLine:
        frames = self._sets.setdefault(set_idx, [])
        for frame in frames:
            if frame.state is LineState.INVALID:
                return frame
        if len(frames) < self.config.ways:
            frame = CacheLine(self.config.line_bytes)
            frames.append(frame)
            return frame
        return min(frames, key=lambda f: f.lru)

    def _touch(self, frame: CacheLine) -> None:
        self._lru_clock += 1
        frame.lru = self._lru_clock

    def _line_base(self, addr: int) -> int:
        return addr & ~(self.config.line_bytes - 1)

    # -- processor-side interface (cached accesses) ------------------------------

    def load(self, addr: int, size: int) -> Generator["Event", None, bytes]:
        """Cached load (process fragment).  Must not straddle a line."""
        self._check_span(addr, size)
        frame = self._find(addr)
        off = addr - self._line_base(addr)
        if frame is not None:
            self.hits += 1
            self._touch(frame)
            # capture before the hit delay: a snoop may invalidate the
            # frame during it, but this load was ordered ahead of that
            data = bytes(frame.data[off : off + size])
            yield self.engine.timeout(self._hit_ns())
            return data
        self.misses += 1
        frame = yield from self._fill(addr, modify=False)
        return bytes(frame.data[off : off + size])

    def store(self, addr: int, data: bytes) -> Generator["Event", None, None]:
        """Cached store (process fragment).  Must not straddle a line.

        Every path re-validates the frame after yielding: while an
        upgrade KILL is stalled (e.g. retried by the S-COMA check), a
        foreign invalidation can take the line away, and the store must
        then fall back to a full RWITM miss rather than resurrect a dead
        frame.
        """
        self._check_span(addr, len(data))
        while True:
            frame = self._find(addr)
            if frame is None:
                self.misses += 1
                frame = yield from self._fill(addr, modify=True)
                break
            if frame.state is LineState.MODIFIED:
                self.hits += 1
                self._touch(frame)
                yield self.engine.timeout(self._hit_ns())
                if self._find(addr) is frame:
                    break
                continue  # invalidated during the hit delay: retry
            # SHARED: upgrade ownership on the bus
            self.hits += 1
            self.upgrades += 1
            self._touch(frame)
            kill = BusTransaction(
                BusOpType.KILL,
                self._line_base(addr),
                self.config.line_bytes,
                master=self.name,
            )
            yield from self.bus.transact(kill)
            if self._find(addr) is frame and frame.state is not LineState.INVALID:
                frame.state = LineState.MODIFIED
                break
            # lost the line while upgrading: retry as a miss
        off = addr - self._line_base(addr)
        frame.data[off : off + len(data)] = data
        frame.state = LineState.MODIFIED

    def _fill(
        self, addr: int, modify: bool
    ) -> Generator["Event", None, CacheLine]:
        line_base = self._line_base(addr)
        set_idx, tag = self._index(addr)
        victim = self._victim(set_idx)
        if victim.state is LineState.MODIFIED:
            yield from self._writeback(victim, set_idx)
        op = BusOpType.RWITM if modify else BusOpType.READ_LINE
        txn = BusTransaction(op, line_base, self.config.line_bytes, master=self.name)
        yield from self.bus.transact(txn)
        victim.tag = tag
        victim.data[:] = txn.data  # type: ignore[arg-type]
        victim.state = LineState.MODIFIED if modify else LineState.SHARED
        self._touch(victim)
        return victim

    def _writeback(
        self, frame: CacheLine, set_idx: int
    ) -> Generator["Event", None, None]:
        self.writebacks += 1
        line_no = frame.tag * self.config.n_sets + set_idx
        addr = line_no * self.config.line_bytes
        txn = BusTransaction(
            BusOpType.WRITE_LINE,
            addr,
            self.config.line_bytes,
            data=bytes(frame.data),
            master=self.name,
        )
        yield from self.bus.transact(txn)
        frame.state = LineState.INVALID
        frame.tag = -1

    def _hit_ns(self) -> float:
        return self.config.hit_cycles * self.bus.config.cycle_ns

    def _check_span(self, addr: int, size: int) -> None:
        if size <= 0:
            raise ProgramError(f"access size must be positive, got {size}")
        if self._line_base(addr) != self._line_base(addr + size - 1):
            raise ProgramError(
                f"cached access [{addr:#x},+{size}) straddles a "
                f"{self.config.line_bytes}-byte line; split it"
            )

    # -- snooper interface -------------------------------------------------------

    def snoop(self, txn: BusTransaction) -> SnoopResult:
        """Maintain coherence against foreign masters.

        The reaction comes from the shared protocol definition
        (:data:`repro.coherence.protocol.L2_SNOOP_TABLE`): push the
        Modified data into DRAM when the foreign master needs current
        bytes (a write push lets a *partial* foreign write merge into
        our line instead of destroying it — the 60X would retry the
        writer and force a writeback first), then downgrade/invalidate.
        """
        if txn.master == self.name:
            return SnoopResult.OK
        frame = self._find(txn.addr)
        if frame is None:
            return SnoopResult.OK
        reaction = l2_snoop_reaction(frame.state.value, txn.op)
        if reaction is None:
            return SnoopResult.OK
        if reaction.push:
            self._push_to_dram(txn.addr, frame)
        if reaction.next_state is not None:
            next_state = LineState(reaction.next_state)
            if next_state is LineState.INVALID:
                frame.tag = -1
            frame.state = next_state
        return SnoopResult.OK

    def _push_to_dram(self, addr: int, frame: CacheLine) -> None:
        self.snoop_pushes += 1
        self.dram.poke(self._line_base(addr), bytes(frame.data))

    # -- diagnostics --------------------------------------------------------------

    def state_of(self, addr: int) -> LineState:
        """Coherence state of the line containing ``addr`` (testing)."""
        frame = self._find(addr)
        return frame.state if frame is not None else LineState.INVALID

    def stats(self) -> Dict[str, int]:
        """Hit/miss/writeback counters (testing/diagnostics)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "snoop_pushes": self.snoop_pushes,
            "upgrades": self.upgrades,
        }
