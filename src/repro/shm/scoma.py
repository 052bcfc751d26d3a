"""User-level S-COMA shared memory.

An S-COMA region is a span of the clsSRAM-covered DRAM window shared
coherently across the cluster: the same local addresses on every node
name the same global lines, each line has a home node, and local DRAM
frames act as an L3 cache kept coherent by the firmware directory
protocol (:mod:`repro.firmware.scoma`).

Programs access the region with plain cached loads and stores — the
whole mechanism is invisible except for timing.  This module provides
region setup (home assignment + initial data) and address helpers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.common.errors import ProgramError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager
    from repro.node.ap import ApApi


class ScomaRegion:
    """A shared, coherent window over the nodes' S-COMA DRAM frames."""

    def __init__(self, machine: "StarTVoyager", n_lines: Optional[int] = None
                 ) -> None:
        self.machine = machine
        # the window layout is identical on every node
        ref = machine.nodes[0]
        self.line_bytes = machine.config.bus.line_bytes
        self.base = ref.scoma_base
        self._home_of = ref.sp.state["scoma"].home_of
        total_lines = ref.niu.cls.n_lines
        self.n_lines = n_lines if n_lines is not None else total_lines
        if self.n_lines > total_lines:
            raise ProgramError(
                f"region of {self.n_lines} lines exceeds the "
                f"{total_lines}-line S-COMA window"
            )

    @property
    def size(self) -> int:
        """Region size in bytes."""
        return self.n_lines * self.line_bytes

    def addr(self, offset: int) -> int:
        """Node-local address of region offset ``offset`` (same on every
        node — that symmetry is what lets firmware forward lines by
        offset)."""
        if not (0 <= offset < self.size):
            raise ProgramError(f"offset {offset:#x} outside the region")
        return self.base + offset

    def line_of(self, offset: int) -> int:
        """Line index of a region offset."""
        return offset // self.line_bytes

    def home_of(self, offset: int) -> int:
        """Home node of the line containing ``offset``."""
        return self._home_of[self.line_of(offset)]

    # -- initialization -----------------------------------------------------

    def init_data(self, offset: int, data: bytes) -> None:
        """Pre-load region contents at the homes (untimed setup).

        Writes each line's bytes into its *home* frame; other nodes start
        INVALID, exactly the protocol's initial condition.
        """
        line_bytes = self.line_bytes
        start_line = self.line_of(offset)
        if offset % line_bytes or len(data) % line_bytes:
            raise ProgramError("init_data must be line-aligned")
        for i in range(len(data) // line_bytes):
            line = start_line + i
            home = self.home_of(line * line_bytes)
            self.machine.node(home).dram.poke(self.addr(line * line_bytes),
                           data[i * line_bytes : (i + 1) * line_bytes])

    # -- capacity management --------------------------------------------------

    def evict(self, api: "ApApi", port, offset: int
              ) -> Generator["ApApi", None, None]:
        """Ask firmware to drop this node's copy of the line at
        ``offset`` (reclaiming the L3 frame).  Clean copies leave the
        sharer set; a dirty copy writes back to the home first.  ``port``
        is any send-capable BasicPort on the caller's node.
        """
        from repro.common.wire import SCOMA_EVICT_REQ
        from repro.niu.niu import SP_SERVICE_QUEUE

        line_offset = (offset // self.line_bytes) * self.line_bytes
        yield from port.send_to(api, api.node_id, SP_SERVICE_QUEUE,
                                SCOMA_EVICT_REQ.pack(line_offset))

    # -- state inspection (testing) ----------------------------------------------

    def cls_state(self, node: int, offset: int) -> int:
        """clsSRAM state of a line at one node."""
        cls = self.machine.node(node).niu.cls
        return cls.state(self.line_of(offset))

    def frame_peek(self, node: int, offset: int, size: int) -> bytes:
        """Untimed coherent read of one node's frame bytes."""
        return self.machine.node(node).peek_coherent(self.addr(offset), size)
