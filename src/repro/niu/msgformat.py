"""Message wire/SRAM format.

A message occupies one queue entry in the dual-ported SRAM: an 8-byte
header followed by up to 88 bytes of payload (the Basic message cap —
chosen so header + payload exactly fills one 96-byte Arctic packet).

Transmit header layout (big-endian, 8 bytes):

====  =======================================================
byte  meaning
====  =======================================================
0     flags: bit0 RAW, bit1 TAGON, bit2 EXPRESS
1     virtual destination (vdst) — or physical node if RAW
2     destination logical rx queue (RAW mode only; otherwise
      the translation table supplies it)
3     payload length in bytes (0..88)
4-5   TagOn source offset in 8-byte units; top bit selects the
      SRAM bank (0 = aSRAM, 1 = sSRAM)
6     TagOn length in 16-byte units (3 -> 48 B = 1.5 lines,
      5 -> 80 B = 2.5 lines)
7     source node (stamped by hardware at transmit)
====  =======================================================

Receive entries reuse the same 8-byte shape with the source node in
byte 1 and flags/length preserved, so user code decodes one format.

Node numbers above one byte (machines past 256 nodes) use *wide*
addressing: flag bit3 (WIDE) repurposes the TagOn bytes for the high
halves — tx carries vdst high in byte 4 and source high in byte 6, rx
carries source high in byte 4.  Wide is RAW-only and mutually exclusive
with TagOn; the encoders set and strip the flag themselves.

One message must fit one packet: ``payload + tagon <= 88``.  This is the
model's (documented) simplification — see DESIGN.md §2; it is exact for
every mechanism the paper exercises (Express+TagOn = 5+80 <= 88; block
transfer command packets = 8+80 <= 88).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.errors import QueueError
from repro.common.wire import MAX_NODE, MAX_PAYLOAD

HEADER_BYTES = 8
#: one queue entry in SRAM: header + max payload.
ENTRY_BYTES = HEADER_BYTES + MAX_PAYLOAD

FLAG_RAW = 0x01
FLAG_TAGON = 0x02
FLAG_EXPRESS = 0x04
#: wide addressing: node numbers above one byte.  RAW-only and mutually
#: exclusive with TagOn — the high bytes ride in the TagOn fields (tx:
#: vdst high in byte 4, source high in byte 6; rx: source high in byte
#: 4), so the entry stays 8 bytes.  Set/cleared by the encoders; user
#: code never passes it.
FLAG_WIDE = 0x08

#: TagOn length codes, in 16-byte units (1.5 and 2.5 cache lines).
TAGON_SMALL_UNITS = 3  # 48 bytes
TAGON_LARGE_UNITS = 5  # 80 bytes
TAGON_UNIT_BYTES = 16


@dataclass
class MsgHeader:
    """Decoded transmit-side message header."""

    flags: int = 0
    vdst: int = 0
    dst_queue: int = 0
    length: int = 0
    tagon_offset: int = 0  # byte offset inside the source bank
    tagon_bank: int = 0  # 0 = aSRAM, 1 = sSRAM
    tagon_units: int = 0  # 16-byte units
    src_node: int = 0

    @property
    def is_raw(self) -> bool:
        """True when the header bypasses destination translation."""
        return bool(self.flags & FLAG_RAW)

    @property
    def is_wide(self) -> bool:
        """True when a node number needs the second (wide) byte."""
        return self.vdst > 0xFF or self.src_node > 0xFF

    @property
    def has_tagon(self) -> bool:
        """True when SRAM data is appended at transmit time."""
        return bool(self.flags & FLAG_TAGON)

    @property
    def tagon_bytes(self) -> int:
        """Size of the TagOn attachment in bytes."""
        return self.tagon_units * TAGON_UNIT_BYTES if self.has_tagon else 0

    def validate(self) -> None:
        """Reject headers the hardware could never emit."""
        if not (0 <= self.length <= MAX_PAYLOAD):
            raise QueueError(f"payload length {self.length} outside 0..{MAX_PAYLOAD}")
        if not (0 <= self.vdst <= 255):
            if not (0 <= self.vdst <= MAX_NODE):
                raise QueueError(f"vdst {self.vdst} outside two bytes "
                                 f"(node ids 0..{MAX_NODE})")
            if not self.is_raw:
                raise QueueError(
                    f"vdst {self.vdst} outside one byte (translated "
                    f"addressing caps at 256 nodes; use RAW)"
                )
            if self.has_tagon:
                raise QueueError(
                    "wide addressing and TagOn are mutually exclusive "
                    "(they share header bytes)"
                )
        if not (0 <= self.src_node <= MAX_NODE):
            raise QueueError(f"source node {self.src_node} outside two "
                             f"bytes (node ids 0..{MAX_NODE})")
        if self.has_tagon:
            if self.tagon_units not in (TAGON_SMALL_UNITS, TAGON_LARGE_UNITS):
                raise QueueError(
                    f"TagOn units must be {TAGON_SMALL_UNITS} or "
                    f"{TAGON_LARGE_UNITS}, got {self.tagon_units}"
                )
            if self.tagon_offset % 8:
                raise QueueError("TagOn data must be 8-byte aligned in SRAM")
        if self.length + self.tagon_bytes > MAX_PAYLOAD:
            raise QueueError(
                f"payload {self.length} + TagOn {self.tagon_bytes} exceeds "
                f"the {MAX_PAYLOAD}-byte packet payload"
            )


def encode_header(h: MsgHeader) -> bytes:
    """Pack a :class:`MsgHeader` into its 8 SRAM bytes."""
    h.validate()
    if h.is_wide:
        return bytes(
            [
                (h.flags | FLAG_WIDE) & 0xFF,
                h.vdst & 0xFF,
                h.dst_queue & 0xFF,
                h.length & 0xFF,
                (h.vdst >> 8) & 0xFF,
                0,
                (h.src_node >> 8) & 0xFF,
                h.src_node & 0xFF,
            ]
        )
    off_units = h.tagon_offset // 8
    if not (0 <= off_units < 0x8000):
        raise QueueError(f"TagOn offset {h.tagon_offset:#x} unencodable")
    word45 = off_units | (0x8000 if h.tagon_bank else 0)
    return bytes(
        [
            h.flags & 0xFF,
            h.vdst & 0xFF,
            h.dst_queue & 0xFF,
            h.length & 0xFF,
            (word45 >> 8) & 0xFF,
            word45 & 0xFF,
            h.tagon_units & 0xFF,
            h.src_node & 0xFF,
        ]
    )


def decode_header(raw: bytes) -> MsgHeader:
    """Unpack 8 SRAM bytes into a :class:`MsgHeader`."""
    if len(raw) != HEADER_BYTES:
        raise QueueError(f"header must be {HEADER_BYTES} bytes, got {len(raw)}")
    if raw[0] & FLAG_WIDE:
        return MsgHeader(
            flags=raw[0] & ~FLAG_WIDE,
            vdst=raw[1] | (raw[4] << 8),
            dst_queue=raw[2],
            length=raw[3],
            src_node=raw[7] | (raw[6] << 8),
        )
    word45 = (raw[4] << 8) | raw[5]
    return MsgHeader(
        flags=raw[0],
        vdst=raw[1],
        dst_queue=raw[2],
        length=raw[3],
        tagon_offset=(word45 & 0x7FFF) * 8,
        tagon_bank=1 if (word45 & 0x8000) else 0,
        tagon_units=raw[6],
        src_node=raw[7],
    )


def encode_rx_header(
    src_node: int, length: int, flags: int = 0
) -> bytes:
    """Receive-side entry header written by CTRL on message arrival."""
    if not (0 <= length <= MAX_PAYLOAD):
        raise QueueError(f"rx length {length} outside 0..{MAX_PAYLOAD}")
    if not (0 <= src_node <= MAX_NODE):
        raise QueueError(f"source node {src_node} outside two bytes "
                         f"(node ids 0..{MAX_NODE})")
    if src_node > 0xFF:
        return bytes([(flags | FLAG_WIDE) & 0xFF, src_node & 0xFF, 0,
                      length & 0xFF, (src_node >> 8) & 0xFF, 0, 0, 0])
    return bytes([flags & 0xFF, src_node & 0xFF, 0, length & 0xFF, 0, 0, 0, 0])


def decode_rx_header(raw: bytes) -> Tuple[int, int, int]:
    """Return ``(src_node, length, flags)`` from a receive entry header."""
    if len(raw) != HEADER_BYTES:
        raise QueueError(f"header must be {HEADER_BYTES} bytes, got {len(raw)}")
    if raw[0] & FLAG_WIDE:
        return raw[1] | (raw[4] << 8), raw[3], raw[0] & ~FLAG_WIDE
    return raw[1], raw[3], raw[0]
