"""Active Messages over Basic messages.

§6 of the paper frames its block transfer as "similar to am_store in
Active Message[s]" — data lands in memory, then a message in the regular
receive queue tells the receiver a handler should run.  This library
supplies that programming model as layer-0 code:

* :class:`AmEndpoint` — register handlers by id; an incoming message's
  first payload byte selects the handler, which runs *on the receiving
  aP* when the application polls (true AM semantics: handlers execute in
  the receiver's context, with the receiver's simulated costs);
* :meth:`AmEndpoint.am_store` — the bulk-data form: a hardware DMA moves
  the payload into far memory and the completion notification carries
  the handler id + arguments, so the handler runs only once the data is
  readable.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, Generator, Tuple

from repro.common.errors import ProgramError
from repro.common.wire import AM, AM_STORE, DMA_NOTIFY
from repro.mp.basic import BasicPort
from repro.mp.dma import dma_write
from repro.niu.niu import NOTIFY_QUEUE, vdst_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.node.ap import ApApi
    from repro.node.node import NodeBoard
    from repro.sim.events import Event

#: an AM handler: ``fn(api, src_node, args) -> generator`` run on the
#: receiving aP at poll time.
AmHandler = Callable[["ApApi", int, bytes], Generator]

#: handler ids 0..239 are for messages; 240..255 arrive via am_store
#: notifications (so one endpoint can tell the two apart).
STORE_HANDLER_BASE = 240


class AmEndpoint:
    """One node's Active Message endpoint."""

    def __init__(self, node: "NodeBoard", tx_index: int = 0,
                 rx_logical: int = 0) -> None:
        self.node = node
        self.port = BasicPort(node, tx_index, rx_logical)
        #: am_store completions arrive on the notification queue.
        self.notify_port = BasicPort(node, tx_index, NOTIFY_QUEUE)
        self._handlers: Dict[int, AmHandler] = {}
        #: announced store handlers not yet matched by a completion, in
        #: announcement order per ``(src, length)``: ``(store_id, addr)``.
        self._pending_stores: Dict[Tuple[int, int],
                                   Deque[Tuple[int, int]]] = {}
        self.dispatched = 0

    # -- registration -----------------------------------------------------

    def register(self, handler_id: int, fn: AmHandler) -> None:
        """Bind ``handler_id`` (one byte) to a handler function."""
        if not (0 <= handler_id <= 255):
            raise ProgramError(f"handler id {handler_id} outside one byte")
        self._handlers[handler_id] = fn

    # -- sending -----------------------------------------------------------

    def send(self, api: "ApApi", dst_node: int, handler_id: int,
             args: bytes = b"") -> Generator["Event", None, None]:
        """Fire handler ``handler_id`` at ``dst_node`` with ``args``."""
        if len(args) > 87:
            raise ProgramError(f"AM args of {len(args)} bytes exceed 87")
        yield from self.port.send(
            api, vdst_for(dst_node, self.port.rx_logical),
            AM.pack(handler_id, tail=args),
        )

    def am_store(self, api: "ApApi", request_port: BasicPort, dst_node: int,
                 src_addr: int, dst_addr: int, length: int,
                 handler_id: int) -> Generator["Event", None, None]:
        """Bulk store + remote handler: the §6 am_store pattern.

        The data moves by hardware DMA; the completion notification (which
        follows the data through the same FIFO path) carries only the
        length, so ``handler_id`` must first be announced with
        :meth:`announce_store_handler`: the destination matches each
        completion to the oldest announcement of its source and length.
        ``request_port`` is the sender-side port that carries the DMA
        request to the local sP.
        """
        if not (STORE_HANDLER_BASE <= handler_id <= 255):
            raise ProgramError(
                f"am_store handlers use ids {STORE_HANDLER_BASE}..255"
            )
        yield from dma_write(api, request_port, dst_node, src_addr,
                             dst_addr, length, notify_queue=NOTIFY_QUEUE)

    def announce_store_handler(self, api: "ApApi", dst_node: int,
                               handler_id: int, dst_addr: int, length: int
                               ) -> Generator["Event", None, None]:
        """Pre-arm the destination: its next unmatched am_store completion
        of ``length`` bytes from this node runs ``handler_id`` (sent as an
        ordinary AM)."""
        args = AM_STORE.pack(dst_addr, length, tail=AM.pack(handler_id))
        yield from self.send(api, dst_node, 0xEE, args)

    # -- receiving -------------------------------------------------------------

    def poll(self, api: "ApApi") -> Generator["Event", None, bool]:
        """Dispatch at most one pending message; True if one ran."""
        msg = yield from self.port.poll(api)
        if msg is not None:
            src, payload = msg
            yield from self._dispatch(api, src, payload)
            return True
        note = yield from self.notify_port.poll(api)
        if note is not None:
            src, payload = note
            yield from self._dispatch_store(api, src, payload)
            return True
        return False

    def poll_wait(self, api: "ApApi", poll_insns: int = 25
                  ) -> Generator["Event", None, None]:
        """Poll until one message has been dispatched."""
        while True:
            ran = yield from self.poll(api)
            if ran:
                return
            yield from api.compute(poll_insns)

    # -- dispatch internals ----------------------------------------------------------

    def _dispatch(self, api: "ApApi", src: int, payload: bytes
                  ) -> Generator["Event", None, None]:
        if not payload:
            return
        handler_id, args = AM.unpack(payload)
        if handler_id == 0xEE:  # store-handler announcement
            addr, length, rest = AM_STORE.unpack(args)
            store_id, _ = AM.unpack(rest)
            self._pending_stores.setdefault((src, length), deque()).append(
                (store_id, addr))
            return
        fn = self._handlers.get(handler_id)
        if fn is None:
            raise ProgramError(f"no AM handler {handler_id} registered")
        self.dispatched += 1
        yield from fn(api, src, args)

    def _dispatch_store(self, api: "ApApi", src: int, payload: bytes
                        ) -> Generator["Event", None, None]:
        length = (DMA_NOTIFY.unpack(payload[:DMA_NOTIFY.size])[0]
                  if len(payload) >= DMA_NOTIFY.size else 0)
        pending = self._pending_stores.get((src, length))
        if not pending:
            return  # plain DMA completion without an armed handler
        store_id, addr = pending.popleft()
        fn = self._handlers.get(store_id)
        if fn is None:
            raise ProgramError(f"no AM store handler {store_id} registered")
        self.dispatched += 1
        yield from fn(api, src, AM_STORE.pack(addr, length))
