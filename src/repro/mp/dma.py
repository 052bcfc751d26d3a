"""User-level DMA: arbitrarily large region copies across nodes.

"An arbitrarily large region of memory can be copied from a local DRAM
to a remote DRAM across the network.  It is implemented by firmware
making use of the primitive block operations."

:func:`dma_write` sends the request message to the local sP's service
queue and (optionally) waits for the completion notification that the
last block-transmit packet delivers into the requester-chosen receive
queue at the *destination*; :class:`DmaNotifier` is the destination-side
helper that waits for it (the am_store pattern of §6).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Tuple

from repro.common.errors import ProgramError
from repro.common.wire import DMA_NOTIFY, DMA_REQ
from repro.mp.basic import BasicPort
from repro.niu.niu import NOTIFY_QUEUE, SP_SERVICE_QUEUE, vdst_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.node.ap import ApApi
    from repro.node.node import NodeBoard
    from repro.sim.events import Event


def dma_write(
    api: "ApApi",
    port: BasicPort,
    dst_node: int,
    src_addr: int,
    dst_addr: int,
    length: int,
    notify_queue: int = NOTIFY_QUEUE,
    mode: int = 3,
) -> Generator["Event", None, None]:
    """Request a DMA of ``length`` bytes to ``dst_node`` and return.

    The transfer proceeds in the background (block units + network); the
    destination learns of completion through ``notify_queue``.  ``mode``
    selects the §6 variant (3 = hardware DMA, 4/5 = optimistic S-COMA
    notification).
    """
    if length <= 0:
        raise ProgramError(f"DMA length must be positive, got {length}")
    request = DMA_REQ.pack(src_addr, dst_node, dst_addr, length,
                           notify_queue, mode)
    t0 = api.now
    yield from port.send(api, vdst_for(api.node_id, SP_SERVICE_QUEUE), request)
    port.stats.accumulator("mp.dma.request_ns").add(api.now - t0)


class DmaNotifier:
    """Destination-side receiver of DMA completion notifications."""

    def __init__(self, node: "NodeBoard", logical: int = NOTIFY_QUEUE) -> None:
        # any aP tx queue works; the notifier only receives
        self.port = BasicPort(node, tx_index=0, rx_logical=logical)

    def wait(self, api: "ApApi"
             ) -> Generator["Event", None, Tuple[int, int]]:
        """Block until a notification arrives; returns (src_node, length)."""
        t0 = api.now
        src, payload = yield from self.port.recv(api)
        self.port.stats.accumulator("mp.dma.notify_wait_ns").add(api.now - t0)
        length = DMA_NOTIFY.unpack(payload[:4])[0] if len(payload) >= 4 else 0
        return src, length
