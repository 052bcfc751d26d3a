"""The diff-ing unit: a TxU/RxU FPGA extension (§5 of the paper).

"'Diff-ing' hardware can be added in the TxURxU FPGA for update-based
shared memory protocols that support multiple writers ... StarT-
Voyager's clsSRAM can be used to track modifications at the cache-line
granularity, thus reducing the amount of diff-ing required.  To support
diff-ing in hardware, both the new and old data are supplied to the
TxURxU so that it can perform the diff and send the appropriate
message."

The model: the unit keeps a *twin* (the line contents at the previous
release) per tracked line, compares new data against the twin at
bus-width granularity, and emits the changed runs.  Comparison is
charged one bus cycle per beat — the FPGA datapath the paper sketches.
Modification tracking at line granularity lives in the companion aBIU
handler (:mod:`repro.firmware.update_shm`), which marks lines dirty when
ownership-acquiring bus operations (RWITM/KILL) pass by — no extra
traffic, exactly the clsSRAM trick the paper describes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Set, Tuple

from repro.common.errors import AddressError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.events import Event


class DiffUnit:
    """Twin storage + word-granular compare for one update region."""

    def __init__(self, engine: "Engine", base: int, size: int,
                 line_bytes: int, word_bytes: int = 8,
                 compare_ns_per_beat: float = 15.15) -> None:
        if base % line_bytes or size % line_bytes:
            raise AddressError("update region must be line-aligned")
        self.engine = engine
        self.base = base
        self.size = size
        self.line_bytes = line_bytes
        self.word_bytes = word_bytes
        self.compare_ns_per_beat = compare_ns_per_beat
        self.n_lines = size // line_bytes
        #: twins: line index -> contents at the last release.
        self._twins: Dict[int, bytes] = {}
        #: lines modified since their last release.
        self.dirty: Set[int] = set()
        self.diffs_produced = 0
        self.bytes_saved = 0

    # -- tracking ----------------------------------------------------------

    def covers(self, addr: int) -> bool:
        """True when ``addr`` is inside the tracked region."""
        return self.base <= addr < self.base + self.size

    def line_of(self, addr: int) -> int:
        """Line index of a covered address."""
        if not self.covers(addr):
            raise AddressError(f"{addr:#x} outside the update region")
        return (addr - self.base) // self.line_bytes

    def line_addr(self, line: int) -> int:
        """Base address of line ``line``."""
        if not (0 <= line < self.n_lines):
            raise AddressError(f"update line {line} out of range")
        return self.base + line * self.line_bytes

    def mark_dirty(self, addr: int) -> None:
        """Record a modification (called from the aBIU observation path)."""
        self.dirty.add(self.line_of(addr))

    def take_dirty(self) -> List[int]:
        """Drain the dirty set in address order (release processing)."""
        lines = sorted(self.dirty)
        self.dirty.clear()
        return lines

    # -- the hardware diff ------------------------------------------------------

    def diff(self, line: int, new_data: bytes
             ) -> Generator["Event", None, List[Tuple[int, bytes]]]:
        """Compare ``new_data`` against the line's twin (timed).

        Returns changed runs as ``(byte offset within line, bytes)``,
        merged at word granularity, and updates the twin.  A line with no
        twin (first release) diffs against zeros, so an untouched cold
        region transmits nothing it does not have to.
        """
        if len(new_data) != self.line_bytes:
            raise AddressError(
                f"diff needs a full {self.line_bytes}-byte line"
            )
        beats = self.line_bytes // self.word_bytes
        yield beats * self.compare_ns_per_beat
        twin = self._twins.get(line, bytes(self.line_bytes))
        runs: List[Tuple[int, bytes]] = []
        run_start = None
        for w in range(beats):
            lo, hi = w * self.word_bytes, (w + 1) * self.word_bytes
            if new_data[lo:hi] != twin[lo:hi]:
                if run_start is None:
                    run_start = lo
            elif run_start is not None:
                runs.append((run_start, new_data[run_start:lo]))
                run_start = None
        if run_start is not None:
            runs.append((run_start, new_data[run_start:]))
        self._twins[line] = bytes(new_data)
        self.diffs_produced += 1
        sent = sum(len(r[1]) for r in runs)
        self.bytes_saved += self.line_bytes - sent
        return runs

    def twin_of(self, line: int) -> bytes:
        """Current twin contents (diagnostics/testing)."""
        return self._twins.get(line, bytes(self.line_bytes))
