"""CTRL queue state: pointers, buffer geometry, policies.

Buffer space for message queues lives in the dual-ported SRAMs; *control
state* — producer/consumer pointers, masks, permissions, policies — lives
inside CTRL, exactly as the paper describes.  Pointer updates are the
triggers that drive CTRL's transmit and receive engines.

Pointers are monotonically increasing entry counts (the classic
wrap-free formulation): occupancy is ``producer - consumer`` and the SRAM
slot of entry ``n`` is ``base + (n % depth) * entry_bytes``.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.common.errors import QueueError
from repro.niu.msgformat import ENTRY_BYTES

#: SRAM bank selectors.
BANK_A = 0
BANK_S = 1


class QueueKind(enum.Enum):
    """Transmit or receive."""

    TX = "tx"
    RX = "rx"

    # members are singletons: identity hashing is exact (DESIGN.md §8.1)
    __hash__ = object.__hash__


#: the members as module constants, for hot code (lint PERF003).
QUEUE_TX = QueueKind.TX
QUEUE_RX = QueueKind.RX


class FullPolicy(enum.Enum):
    """What CTRL does with a message bound for a full receive queue.

    The paper lists exactly these options: drop the packet, hold it
    (risking network deadlock), or divert it to the overflow queue.
    """

    DROP = "drop"
    BLOCK = "block"
    DIVERT = "divert"


class QueueState:
    """Control state of one hardware queue slot inside CTRL."""

    __slots__ = (
        "kind",
        "index",
        "bank",
        "base",
        "depth",
        "entry_bytes",
        "producer",
        "consumer",
        "enabled",
        "translate",
        "allow_raw",
        "priority",
        "and_mask",
        "or_mask",
        "logical_id",
        "full_policy",
        "interrupt_on_arrival",
        "owner_pid",
        "shadow_offset",
        "messages",
        "drops",
    )

    def __init__(
        self,
        kind: QueueKind,
        index: int,
        bank: int,
        base: int,
        depth: int,
        entry_bytes: int = ENTRY_BYTES,
    ) -> None:
        if depth < 2 or depth & (depth - 1):
            raise QueueError(f"queue depth must be a power of two >= 2: {depth}")
        if base % 8:
            raise QueueError("queue buffers must be 8-byte aligned in SRAM")
        self.kind = kind
        self.index = index
        self.bank = bank
        self.base = base
        self.depth = depth
        self.entry_bytes = entry_bytes
        self.producer = 0
        self.consumer = 0
        #: queue is usable; protection violations clear this ("shutdown").
        self.enabled = True
        #: destination translation on transmit (disable for trusted raw use).
        self.translate = True
        #: whether RAW-flagged messages are permitted from this queue.
        self.allow_raw = False
        #: transmit arbitration priority (lower wins), set via sysregs.
        self.priority = 0
        #: AND/OR mask applied to the vdst before table lookup (protection:
        #: confines the queue to a slice of the translation table).
        self.and_mask = 0xFF
        self.or_mask = 0x00
        #: receive-side: logical queue id this hw slot is caching.
        self.logical_id: Optional[int] = None
        #: receive-side behaviour.
        self.full_policy = FullPolicy.DIVERT
        self.interrupt_on_arrival = False
        #: owning process tag (protection experiments).
        self.owner_pid = 0
        #: SRAM offset of the pointer shadow (None = not shadowed).
        self.shadow_offset: Optional[int] = None
        # statistics
        self.messages = 0
        self.drops = 0

    # -- geometry -----------------------------------------------------------

    def slot_offset(self, entry_no: int) -> int:
        """SRAM byte offset of entry number ``entry_no``."""
        return self.base + (entry_no % self.depth) * self.entry_bytes

    @property
    def occupancy(self) -> int:
        """Entries currently queued."""
        return self.producer - self.consumer

    @property
    def space(self) -> int:
        """Free entries."""
        return self.depth - self.occupancy

    @property
    def is_empty(self) -> bool:
        """True when no entries are queued."""
        return self.producer == self.consumer

    @property
    def is_full(self) -> bool:
        """True when every slot is occupied."""
        return self.occupancy >= self.depth

    # -- pointer updates ------------------------------------------------------

    def advance_producer(self, new: int) -> int:
        """Move the producer forward to ``new``; returns entries added."""
        added = new - self.producer
        if added < 0:
            raise QueueError(
                f"{self.kind.value}{self.index}: producer moved backwards "
                f"({self.producer} -> {new})"
            )
        if self.occupancy + added > self.depth:
            raise QueueError(
                f"{self.kind.value}{self.index}: producer update overruns "
                f"consumer (occupancy {self.occupancy}+{added} > {self.depth})"
            )
        self.producer = new
        return added

    def advance_consumer(self, new: int) -> int:
        """Move the consumer forward to ``new``; returns entries freed."""
        freed = new - self.consumer
        if freed < 0:
            raise QueueError(
                f"{self.kind.value}{self.index}: consumer moved backwards "
                f"({self.consumer} -> {new})"
            )
        if freed > self.occupancy:
            raise QueueError(
                f"{self.kind.value}{self.index}: consumer passed producer"
            )
        self.consumer = new
        return freed

    def translate_vdst(self, vdst: int) -> int:
        """Apply the protection masks: table index = (vdst AND a) OR o."""
        return (vdst & self.and_mask) | self.or_mask

    def shutdown(self) -> None:
        """Protection response: disable the queue until software re-arms it."""
        self.enabled = False

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<{self.kind.value}Q{self.index} p={self.producer} "
            f"c={self.consumer}/{self.depth} {'on' if self.enabled else 'OFF'}>"
        )
