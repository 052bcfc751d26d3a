"""Collective message wire format (one layout for REQ/UP/DOWN).

Every collective message fits one Basic payload and shares one layout so
the firmware decodes a single shape:

====== ==========================================
bytes  field
====== ==========================================
0      message type (MSG_COLL_REQ / _UP / _DOWN)
1      collective kind (barrier/bcast/reduce/allreduce)
2      reduction op code (:data:`repro.net.combine.OPS`)
3      communicator id
4-7    collective sequence number (u32 — the firmware combining state is
       keyed by (comm, seq), so host-side 15-bit tag wraps never alias
       in-flight firmware state)
8      root rank
9      reply logical rx queue (where results are delivered to the aP)
10-11  delivery tag (the mini-MPI fragment tag the aP is waiting on)
12     data length
13+    data (8-byte signed value for reduce/allreduce, broadcast payload,
       or empty for barrier)
====== ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import FirmwareError, ProgramError
from repro.firmware.proto import MSG_COLL_DOWN, MSG_COLL_REQ, MSG_COLL_UP
from repro.niu.msgformat import MAX_PAYLOAD

COLL_HEADER = 13
#: the largest data section a collective message can carry; also bounded
#: by the delivery fragment (10-byte mini-MPI header + data <= 88).
COLL_MAX_DATA = min(MAX_PAYLOAD - COLL_HEADER, 78)

KIND_BARRIER = 0
KIND_BCAST = 1
KIND_REDUCE = 2
KIND_ALLREDUCE = 3

KIND_NAMES = {
    KIND_BARRIER: "barrier",
    KIND_BCAST: "bcast",
    KIND_REDUCE: "reduce",
    KIND_ALLREDUCE: "allreduce",
}

_COLL_TYPES = (MSG_COLL_REQ, MSG_COLL_UP, MSG_COLL_DOWN)


@dataclass(frozen=True)
class CollMsg:
    """One decoded collective message."""

    type: int
    kind: int
    op: int
    comm: int
    seq: int
    root: int
    reply_queue: int
    tag: int
    data: bytes

    @property
    def key(self):
        """The firmware combining-state key."""
        return (self.comm, self.seq)


def pack_coll(type_: int, kind: int, op: int, comm: int, seq: int,
              root: int, reply_queue: int, tag: int, data: bytes = b""
              ) -> bytes:
    """Pack one collective message (validates every field range)."""
    if type_ not in _COLL_TYPES:
        raise ProgramError(f"not a collective message type: {type_}")
    if kind not in KIND_NAMES:
        raise ProgramError(f"unknown collective kind {kind}")
    if len(data) > COLL_MAX_DATA:
        raise ProgramError(
            f"collective data of {len(data)} bytes exceeds the "
            f"{COLL_MAX_DATA}-byte single-message cap"
        )
    if not (0 <= seq < 1 << 32):
        raise ProgramError(f"sequence {seq} outside 32 bits")
    if not (0 <= tag <= 0xFFFF):
        raise ProgramError(f"tag {tag} outside 16 bits")
    return (bytes([type_, kind, op & 0xFF, comm & 0xFF])
            + seq.to_bytes(4, "big")
            + bytes([root & 0xFF, reply_queue & 0xFF])
            + tag.to_bytes(2, "big")
            + bytes([len(data)])
            + data)


def unpack_coll(payload: bytes) -> CollMsg:
    """Decode one collective message (firmware side)."""
    if len(payload) < COLL_HEADER or payload[0] not in _COLL_TYPES:
        raise FirmwareError(f"not a collective message: {payload!r}")
    length = payload[12]
    if len(payload) < COLL_HEADER + length:
        raise FirmwareError(f"truncated collective message: {payload!r}")
    return CollMsg(
        type=payload[0],
        kind=payload[1],
        op=payload[2],
        comm=payload[3],
        seq=int.from_bytes(payload[4:8], "big"),
        root=payload[8],
        reply_queue=payload[9],
        tag=int.from_bytes(payload[10:12], "big"),
        data=payload[COLL_HEADER : COLL_HEADER + length],
    )


def pack_value(value: int) -> bytes:
    """An integer contribution as its 8-byte signed wire form."""
    return value.to_bytes(8, "big", signed=True)


def unpack_value(data: bytes) -> int:
    """Decode an 8-byte signed contribution."""
    if len(data) != 8:
        raise FirmwareError(f"reduction value must be 8 bytes, got {len(data)}")
    return int.from_bytes(data, "big", signed=True)
