"""CSP-style channels over Express messages.

Express messages carry five bytes in a single store/load pair — ideal
for fine-grained synchronization.  A :class:`TokenChannel` multiplexes
small typed tokens over each node's Express port: one byte of channel
id (riding in the store address), four bytes of value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Tuple

from repro.common.wire import TOKEN
from repro.mp.express import ExpressPort
from repro.niu.niu import EXPRESS_RX_LOGICAL, vdst_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager
    from repro.node.ap import ApApi
    from repro.sim.events import Event


class TokenChannel:
    """Typed 32-bit tokens between nodes, one Express message each."""

    def __init__(self, machine: "StarTVoyager", node: int) -> None:
        self.machine = machine
        self.node = node
        self.port = ExpressPort(machine.node(node))
        #: tokens that arrived for other channel ids while we waited.
        self._stash: Dict[int, List[Tuple[int, int]]] = {}

    def send(self, api: "ApApi", dst: int, channel: int, value: int
             ) -> Generator["Event", None, None]:
        """Send ``value`` on ``channel`` to node ``dst`` (one store)."""
        yield from self.port.send(
            api, vdst_for(dst, EXPRESS_RX_LOGICAL),
            TOKEN.pack(channel, value))  # ProgramError outside the fields

    def recv(self, api: "ApApi", channel: int, poll_insns: int = 25
             ) -> Generator["Event", None, Tuple[int, int]]:
        """Receive the next ``(src, value)`` on ``channel`` (blocking)."""
        stash = self._stash.get(channel)
        if stash:
            return stash.pop(0)
        while True:
            msg = yield from self.port.recv(api)
            if msg is None:
                yield from api.compute(poll_insns)
                continue
            src, payload = msg
            got_channel, value = TOKEN.unpack(payload)
            if got_channel == channel:
                return src, value
            self._stash.setdefault(got_channel, []).append((src, value))
