"""Byte-addressable backing stores.

Every memory in the model (DRAM, the NIU SRAMs) holds *real bytes*.
That is what makes the test suite able to assert end-to-end data
integrity: a DMA of random bytes must arrive byte-exact at the far node,
through every queue, packet, and bus crossing.

The bytes live in a private anonymous ``mmap``: the kernel hands out
zero pages on first touch, so a node's 8 MB of DRAM costs host memory
only for the pages the simulation writes (DESIGN.md §8.4).
``MAP_PRIVATE`` keeps a forked worker's copy copy-on-write, as a heap
``bytearray`` would be.

Two access styles coexist:

* :meth:`read` / :meth:`write` — copying, for small control words and
  call sites that keep the bytes around;
* :meth:`view` / :meth:`write_parts` — the zero-copy data plane.  A view
  is a read-only :class:`memoryview` aliasing the live backing store:
  valid only until the next write to that range, so it must be
  *materialized* (``bytes(view)``) at any protection boundary where the
  data outlives the source — packet/command construction being the two
  in this codebase (see DESIGN.md §"Zero-copy data plane").
"""

from __future__ import annotations

import mmap
from typing import Iterable

from repro.common.errors import AddressError


class ByteBacking:
    """A bounds-checked window of raw bytes starting at offset zero."""

    __slots__ = ("size", "_data", "_mv", "name")

    def __init__(self, size: int, name: str = "mem", fill: int = 0) -> None:
        if size <= 0:
            raise AddressError(f"backing size must be positive, got {size}")
        if not (0 <= fill <= 255):
            raise AddressError(f"fill byte out of range: {fill}")
        self.size = size
        self.name = name
        self._data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        if fill:
            self._data[:] = bytes([fill]) * size
        # One long-lived memoryview; slicing it is allocation-light and,
        # unlike slicing the mmap, copies nothing.
        self._mv = memoryview(self._data)

    def _check(self, offset: int, length: int) -> None:
        if length < 0:
            raise AddressError(f"negative length {length}")
        if offset < 0 or offset + length > self.size:
            raise AddressError(
                f"{self.name}: access [{offset:#x}, {offset + length:#x}) "
                f"outside [0, {self.size:#x})"
            )

    def read(self, offset: int, length: int) -> bytes:
        """Copy ``length`` bytes starting at ``offset``."""
        self._check(offset, length)
        # slicing an mmap copies once, straight into a new bytes object
        return self._data[offset : offset + length]

    def view(self, offset: int, length: int) -> memoryview:
        """Read-only zero-copy window onto the live backing store.

        The view aliases the underlying bytes: a later :meth:`write` to
        the same range changes what the view yields.  Materialize with
        ``bytes(view)`` before the data crosses a protection boundary
        (packet payloads, command data) or before the source range can
        be recycled (queue slots, double buffers).
        """
        self._check(offset, length)
        return self._mv[offset : offset + length].toreadonly()

    def write(self, offset: int, data: bytes) -> None:
        """Store ``data`` at ``offset``."""
        self._check(offset, len(data))
        self._data[offset : offset + len(data)] = data

    def write_parts(self, offset: int, parts: Iterable[bytes]) -> int:
        """Scatter-gather store: land ``parts`` contiguously at ``offset``.

        The landing-store counterpart of :meth:`view` — a receive path
        can deposit ``[header, payload_view]`` in one call without first
        concatenating them into a temporary.  Returns the bytes written.
        """
        pos = offset
        data = self._data
        for part in parts:
            n = len(part)
            self._check(pos, n)
            data[pos : pos + n] = part
            pos += n
        return pos - offset

    def fill(self, offset: int, length: int, value: int = 0) -> None:
        """Set a range to one byte value."""
        self._check(offset, length)
        if not (0 <= value <= 255):
            raise AddressError(f"fill byte out of range: {value}")
        self._data[offset : offset + length] = bytes([value]) * length

    def read_u32(self, offset: int) -> int:
        """Read a big-endian 32-bit word (the 604 is big-endian)."""
        return int.from_bytes(self.read(offset, 4), "big")

    def write_u32(self, offset: int, value: int) -> None:
        """Write a big-endian 32-bit word."""
        self.write(offset, (value & 0xFFFFFFFF).to_bytes(4, "big"))

    def read_u64(self, offset: int) -> int:
        """Read a big-endian 64-bit word."""
        return int.from_bytes(self.read(offset, 8), "big")

    def write_u64(self, offset: int, value: int) -> None:
        """Write a big-endian 64-bit word."""
        self.write(offset, (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"))
