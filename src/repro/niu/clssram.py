"""clsSRAM: cache-line state bits and the aBIU action table.

A single-ported SRAM holding four state bits per cache line of a covered
DRAM window.  "The clsSRAM is read for every aP bus operation and [the
bits] are passed to the aBIU ... The aBIU determines what action, if
any, should be taken ... Two bits encode the possible reactions: one bit
indicates whether the operation should be retried and the other bit
specifies whether the operation should be passed to the sP.  These bits
are in a table indexed by the bus operation and the clsSRAM bits."

Four state bits allow sixteen states — enough for "multiple coherence
protocols simultaneously or very complex coherence protocols".  The
default S-COMA protocol uses four of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.bus.ops import BusOpType
from repro.coherence.protocol import (
    MSI_INVALID,
    MSI_PENDING,
    MSI_RO,
    MSI_RW,
)
from repro.common.errors import AddressError, ConfigError

#: default S-COMA line states (values are the 4-bit clsSRAM contents);
#: canonically defined by :mod:`repro.coherence.protocol`, re-exported
#: here under their historical hardware-facing names.
CLS_INVALID = MSI_INVALID  #: line not present locally — fetch required
CLS_PENDING = MSI_PENDING  #: fetch in flight — retry, don't re-notify
CLS_RO = MSI_RO  #: readable copy present
CLS_RW = MSI_RW  #: writable (owned) copy present


@dataclass(frozen=True)
class ClsAction:
    """The aBIU's reaction to one (bus op, state) pair."""

    retry: bool = False
    pass_to_sp: bool = False
    #: new state the aBIU writes back as it reacts (None = leave as is);
    #: this is how INVALID flips to PENDING exactly once per miss.
    next_state: int = None  # type: ignore[assignment]


class ClsSram:
    """State bits for a window of DRAM, plus the reaction table."""

    __slots__ = (
        "cover_base",
        "n_lines",
        "line_bytes",
        "_states",
        "_table",
        "checks",
        "retries",
        "sanitizer",
    )

    def __init__(self, cover_base: int, n_lines: int, line_bytes: int) -> None:
        if n_lines <= 0:
            raise ConfigError("clsSRAM must cover at least one line")
        if cover_base % line_bytes:
            raise ConfigError("clsSRAM coverage must be line-aligned")
        self.cover_base = cover_base
        self.n_lines = n_lines
        self.line_bytes = line_bytes
        self._states = bytearray(n_lines)  # 4-bit values, one per line
        self._table: Dict[Tuple[BusOpType, int], ClsAction] = {}
        self.checks = 0
        self.retries = 0
        #: coherence sanitizer hook (None = checks disabled, zero cost).
        self.sanitizer = None

    # -- coverage -----------------------------------------------------------

    @property
    def cover_end(self) -> int:
        """One past the last covered address."""
        return self.cover_base + self.n_lines * self.line_bytes

    def covers(self, addr: int) -> bool:
        """True when ``addr`` lies in the covered window."""
        return self.cover_base <= addr < self.cover_end

    def line_of(self, addr: int) -> int:
        """Line index of a covered address."""
        if not self.covers(addr):
            raise AddressError(
                f"address {addr:#x} outside clsSRAM coverage "
                f"[{self.cover_base:#x}, {self.cover_end:#x})"
            )
        return (addr - self.cover_base) // self.line_bytes

    def addr_of(self, line: int) -> int:
        """Base address of line ``line``."""
        if not (0 <= line < self.n_lines):
            raise AddressError(f"clsSRAM line {line} out of range")
        return self.cover_base + line * self.line_bytes

    # -- state bits ------------------------------------------------------------

    def state(self, line: int) -> int:
        """Current 4-bit state of a line."""
        if not (0 <= line < self.n_lines):
            raise AddressError(f"clsSRAM line {line} out of range")
        return self._states[line]

    def set_state(self, line: int, state: int, fill: bool = False,
                  cause: str = None) -> None:
        """Write a line's state (firmware commands and Approach-5 hardware).

        ``fill`` marks data-carrying writes — a grant depositing home data
        alongside the state change — so the coherence sanitizer can flag
        fills that would overwrite a locally modified (RW) frame.
        ``cause`` names the protocol step driving the write (a
        :data:`repro.coherence.protocol.CACHE_TABLE` key); the sanitizer
        machine-checks cause-tagged transitions against that table.
        Untagged writes (setup, block-transfer arming, experimental
        protocols) skip the table check.
        """
        if not (0 <= state <= 0xF):
            raise AddressError(f"clsSRAM state {state} needs 4 bits")
        if not (0 <= line < self.n_lines):
            raise AddressError(f"clsSRAM line {line} out of range")
        san = self.sanitizer
        if san is not None:
            san.on_fw_transition(self, line, self._states[line], state, fill,
                                 cause)
        self._states[line] = state

    def load_states(self, states: bytes) -> None:
        """Bulk-write the 4-bit states of lines ``[0, len(states))``.

        Setup only: one slice store instead of a :meth:`set_state` per
        line.  Like any untagged setup write it is not reported to the
        coherence sanitizer, which machines attach after installing
        firmware.
        """
        if len(states) > self.n_lines:
            raise AddressError(
                f"clsSRAM load of {len(states)} lines exceeds its "
                f"{self.n_lines}-line coverage"
            )
        self._states[: len(states)] = states

    def set_range(self, first_line: int, n_lines: int, state: int) -> None:
        """Bulk state write (block-operation-unit support)."""
        for line in range(first_line, first_line + n_lines):
            self.set_state(line, state)

    # -- the reaction table ---------------------------------------------------------

    def set_action(self, op: BusOpType, state: int, action: ClsAction) -> None:
        """Program one table slot (this is "reconfiguring the FPGA table")."""
        self._table[(op, state)] = action

    def check(self, op: BusOpType, addr: int) -> ClsAction:
        """The hardware check performed in parallel with every snoop.

        Looks up the line state, consults the table, applies any
        ``next_state`` transition, and returns the action.  Unknown
        (op, state) pairs take no action — the table is "configurable"
        precisely so untouched operations pass through.
        """
        self.checks += 1
        line = self.line_of(addr)
        state = self._states[line]
        action = self._table.get((op, state))
        if action is None:
            return ClsAction()
        if action.next_state is not None:
            san = self.sanitizer
            if san is not None:
                san.on_hw_transition(self, line, state, action.next_state, op)
            self._states[line] = action.next_state
        if action.retry:
            self.retries += 1
        return action


def install_scoma_default_table(cls: ClsSram) -> None:
    """The default S-COMA reaction table.

    Reads of INVALID lines retry and notify firmware once (the state flips
    to PENDING so later retries stay quiet); PENDING retries silently;
    valid states pass.  Writes need RW: RO writes retry and request an
    upgrade; the KILL a store-upgrade emits behaves like the write itself.
    """
    for read_op in (BusOpType.READ, BusOpType.READ_LINE):
        cls.set_action(read_op, CLS_INVALID,
                       ClsAction(retry=True, pass_to_sp=True, next_state=CLS_PENDING))
        cls.set_action(read_op, CLS_PENDING, ClsAction(retry=True))
    for write_op in (BusOpType.WRITE, BusOpType.WRITE_LINE, BusOpType.RWITM,
                     BusOpType.KILL):
        cls.set_action(write_op, CLS_INVALID,
                       ClsAction(retry=True, pass_to_sp=True, next_state=CLS_PENDING))
        cls.set_action(write_op, CLS_PENDING, ClsAction(retry=True))
        cls.set_action(write_op, CLS_RO,
                       ClsAction(retry=True, pass_to_sp=True, next_state=CLS_PENDING))
