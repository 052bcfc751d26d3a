"""User API for update-based (release-consistent) shared memory.

The §5 diff-ing extension's layer-0 wrapper: plain cached loads/stores
between releases, one library call to release.  See
:mod:`repro.firmware.update_shm` for the mechanism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Optional

from repro.common.errors import ProgramError
from repro.common.wire import UPDATE_RELEASE
from repro.firmware.update_shm import install_update_region
from repro.mp.basic import BasicPort
from repro.niu.niu import SP_SERVICE_QUEUE, vdst_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager
    from repro.node.ap import ApApi
    from repro.sim.events import Event


class UpdateRegion:
    """A shared, release-consistent window of cached DRAM."""

    def __init__(self, machine: "StarTVoyager", base: int, size: int,
                 nodes: Optional[List[int]] = None) -> None:
        self.machine = machine
        self.base = base
        self.size = size
        self.nodes = nodes if nodes is not None else \
            list(range(machine.config.n_nodes))
        if len(self.nodes) < 2:
            raise ProgramError("an update region needs at least two peers")
        self.units = {
            n: install_update_region(machine.node(n), base, size, self.nodes)
            for n in self.nodes
        }

    def addr(self, offset: int) -> int:
        """Region-relative address (same on every peer)."""
        if not (0 <= offset < self.size):
            raise ProgramError(f"offset {offset:#x} outside the region")
        return self.base + offset

    def release(self, api: "ApApi", port: BasicPort, notify_queue: int
                ) -> Generator["Event", None, None]:
        """Propagate this node's modifications to every peer.

        ``port`` is any send-capable BasicPort on the caller's node;
        ``notify_queue`` names the logical receive queue (usually the
        port's own) where the completion notification lands.  Returns
        once the local release has fully propagated *from this node* —
        peers apply updates as they arrive.
        """
        yield from port.send(
            api, vdst_for(api.node_id, SP_SERVICE_QUEUE),
            UPDATE_RELEASE.pack(notify_queue),
        )
        while True:
            msg = yield from port.poll(api)
            if msg is not None and msg[1] == b"rel":
                return
            yield from api.compute(25)

    def peek(self, node: int, offset: int, size: int) -> bytes:
        """Untimed coherent read of one peer's copy (testing)."""
        return self.machine.node(node).peek_coherent(self.addr(offset), size)
