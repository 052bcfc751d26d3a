"""Bounded FIFO stores with blocking put/get.

Hardware FIFOs — queue SRAM buffers, the TxU/RxU network FIFOs, link
input buffers, the aBIU→sBIU queue — are modeled as :class:`Store`:
``put`` blocks when full (backpressure), ``get`` blocks when empty.
Both return events, so producers and consumers are ordinary processes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List, Optional, Tuple

from repro.common.errors import QueueEmptyError, QueueFullError, SimulationError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class Store:
    """A FIFO of items with optional capacity (None = unbounded)."""

    __slots__ = (
        "engine",
        "capacity",
        "name",
        "_items",
        "_getters",
        "_putters",
        "total_put",
        "total_got",
        "peak_depth",
        "_put_name",
        "_get_name",
    )

    def __init__(
        self, engine: "Engine", capacity: Optional[int] = None, name: str = ""
    ) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError("store capacity must be >= 1 or None")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        # waiter FIFOs: rarely more than a few entries, so plain lists
        # (an empty deque costs about ten times an empty list, and a
        # 64-node machine has thousands of stores)
        self._getters: List[Event] = []
        self._putters: List[Tuple[Event, Any]] = []
        # statistics
        self.total_put = 0
        self.total_got = 0
        self.peak_depth = 0
        # Event names precomputed once: put/get are hot enough that a
        # per-call f-string was measurable in kernel profiles.
        self._put_name = "put:" + name
        self._get_name = "get:" + name

    # -- blocking interface ------------------------------------------------

    def put(self, item: Any) -> Event:
        """Event that succeeds once ``item`` has been accepted."""
        ev = Event(self.engine, self._put_name)
        if self.capacity is None or len(self._items) < self.capacity:
            self._accept(item)
            ev.succeed(item)
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """Event that succeeds with the oldest item."""
        ev = Event(self.engine, self._get_name)
        if self._items:
            ev.succeed(self._pop())
            self._drain_putters()
        else:
            self._getters.append(ev)
        return ev

    # -- non-blocking interface ---------------------------------------------

    def try_put(self, item: Any) -> None:
        """Immediate put; raises :class:`QueueFullError` when full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise QueueFullError(f"store {self.name!r} full ({self.capacity})")
        self._accept(item)

    def try_get(self) -> Any:
        """Immediate get; raises :class:`QueueEmptyError` when empty."""
        if not self._items:
            raise QueueEmptyError(f"store {self.name!r} empty")
        item = self._pop()
        self._drain_putters()
        return item

    def peek(self) -> Any:
        """Oldest item without removing it; raises when empty."""
        if not self._items:
            raise QueueEmptyError(f"store {self.name!r} empty")
        return self._items[0]

    # -- internals ---------------------------------------------------------

    def _accept(self, item: Any) -> None:
        # Hand directly to a waiting getter when one exists, preserving FIFO.
        while self._getters:
            ev = self._getters.pop(0)
            if ev.triggered:
                continue
            self.total_put += 1
            self.total_got += 1
            ev.succeed(item)
            return
        self._items.append(item)
        self.total_put += 1
        depth = len(self._items)
        if depth > self.peak_depth:
            self.peak_depth = depth

    def _pop(self) -> Any:
        self.total_got += 1
        return self._items.popleft()

    def _drain_putters(self) -> None:
        while self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            ev, item = self._putters.pop(0)
            if ev.triggered:
                continue
            self._accept(item)
            ev.succeed(item)

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        """True when no items are queued."""
        return not self._items

    @property
    def is_full(self) -> bool:
        """True when at capacity (never true for unbounded stores)."""
        return self.capacity is not None and len(self._items) >= self.capacity

    def snapshot(self) -> List[Any]:
        """Copy of the queued items, oldest first (testing/diagnostics)."""
        return list(self._items)
