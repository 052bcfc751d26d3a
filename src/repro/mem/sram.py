"""NIU SRAM banks.

The NIU carries two *dual-ported* SRAMs (aSRAM, sSRAM) — one port on a
604 bus side, the other on the IBus — plus the single-ported clsSRAM that
the aBIU reads in parallel with every aP bus operation (modeled in
:mod:`repro.niu.clssram`; the 4-bit states it holds are the cache side
of the MSI directory protocol defined in
:mod:`repro.coherence.protocol`).

Each port is an arbitrated resource, so simultaneous IBus and bus-side
traffic to the *same* bank contends per port while the two ports proceed
independently — the property that lets CTRL deposit an arriving message
into aSRAM while the aP reads another message out.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Sequence

from repro.common.errors import AddressError
from repro.mem.backing import ByteBacking
from repro.sim.resource import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.events import Event

#: port identifiers
PORT_BUS = 0
PORT_IBUS = 1


class DualPortedSRAM:
    """Two-ported byte-backed SRAM with per-port arbitration and timing."""

    def __init__(
        self,
        engine: "Engine",
        size: int,
        access_ns: float,
        width_bytes: int = 8,
        name: str = "sram",
    ) -> None:
        if width_bytes <= 0:
            raise AddressError("SRAM width must be positive")
        self.engine = engine
        self.name = name
        self.access_ns = access_ns
        self.width_bytes = width_bytes
        self.backing = ByteBacking(size, name=name)
        self._ports = (
            Resource(engine, 1, name=f"{name}.p0"),
            Resource(engine, 1, name=f"{name}.p1"),
        )

    def _beats(self, length: int) -> int:
        return max(1, -(-length // self.width_bytes))  # ceil division

    def read(
        self, port: int, offset: int, length: int
    ) -> Generator["Event", None, bytes]:
        """Timed read through ``port`` (process fragment)."""
        res = self._ports[port]
        if not res.try_acquire():
            yield res.request()
        try:
            # _beats, inline: every pointer poll's shadow read lands here
            yield max(1, -(-length // self.width_bytes)) * self.access_ns
            return self.backing.read(offset, length)
        finally:
            res.release()

    def read_view(
        self, port: int, offset: int, length: int
    ) -> Generator["Event", None, memoryview]:
        """Timed zero-copy read through ``port`` (process fragment).

        Same arbitration and beat timing as :meth:`read`, but returns a
        read-only :class:`memoryview` aliasing the bank — valid only
        until the range is overwritten (queue slots are recycled!), so
        callers materialize at their protection boundary, not here.
        """
        res = self._ports[port]
        if not res.try_acquire():
            yield res.request()
        try:
            yield self._beats(length) * self.access_ns
            return self.backing.view(offset, length)
        finally:
            res.release()

    def write(
        self, port: int, offset: int, data: bytes
    ) -> Generator["Event", None, None]:
        """Timed write through ``port`` (process fragment)."""
        res = self._ports[port]
        if not res.try_acquire():
            yield res.request()
        try:
            yield self._beats(len(data)) * self.access_ns
            self.backing.write(offset, data)
        finally:
            res.release()

    def write_parts(
        self, port: int, offset: int, parts: Sequence[bytes]
    ) -> Generator["Event", None, None]:
        """Timed scatter-gather write through ``port`` (process fragment).

        Timing-identical to :meth:`write` of the concatenated parts (one
        arbitration, beats over the total length) without building the
        concatenation — the receive path lands ``[header, payload_view]``
        straight into the queue slot.
        """
        total = sum(len(p) for p in parts)
        res = self._ports[port]
        if not res.try_acquire():
            yield res.request()
        try:
            yield self._beats(total) * self.access_ns
            self.backing.write_parts(offset, parts)
        finally:
            res.release()

    # -- zero-time access for checks and pointer shadows ------------------------
    #
    # CTRL shadows queue pointers into SRAM so the aP can poll them with
    # plain loads; the shadow-update itself is charged to CTRL's own op
    # timing, so the backing-store write here is zero-time by design.

    def peek(self, offset: int, length: int) -> bytes:
        """Untimed read of the backing store."""
        return self.backing.read(offset, length)

    def poke(self, offset: int, data: bytes) -> None:
        """Untimed write of the backing store."""
        self.backing.write(offset, data)
