"""The wire registry: every sP and switch message layout, declared once.

A message bound for an sP service/protocol queue starts with a type
byte; the fields after it are big-endian and fixed-width, optionally
followed by a tail of raw bytes.  Each :class:`Layout` below is one
declarative line — the fields in wire order as ``name:code`` tokens
(``x`` is a zero pad byte) — and both directions are derived from it:

====== ===============================================================
code   field
====== ===============================================================
``B``  unsigned byte
``?``  flag byte (packs truthiness as 0/1, unpacks a bool)
``H``  unsigned 16-bit
``N``  node id: unsigned 16-bit, 0..``MAX_NODE`` or ``NO_NODE``
``I``  unsigned 32-bit
``q``  signed 64-bit
``A``  48-bit address (6 bytes; pack rejects values outside 48 bits)
====== ===============================================================

A layout's tail is ``None`` (the message is exactly the header),
``"rest"`` (everything after the header) or the name of a length field
(that many bytes follow; pack fills the field from ``len(tail)``).
``Layout.pack(*fields, tail=b"")`` takes the fields in wire order, minus
pad bytes and a tail-length field; ``Layout.unpack(p)`` returns them in
the same order, plus the tail when there is one.  A layout declaring
several type bytes takes and returns the type as its first field.

A node id goes on the wire only where the receiver cannot know it
otherwise: the rx header already carries every message's source node
(the handler's ``src``, kept by go-back-N and overflow redelivery), and
an installed collectives plan already names its root.  Where an id must
travel (a DMA or reliable-send destination, a sync tag's member) it uses
code ``N``; :func:`check_table` rejects a node-named field with any
other code.  Fields that once carried the sender are pad bytes, and so
are fields every sender packed as a constant or no receiver read (an
``op`` byte where every fold is a sum, a communicator id, a combined
request count, an always-true flag), so every message kept its length.

The registry lives in ``common`` because it is the one layer every
speaker may import: the firmware writes the same reply formats the
combining switches (``net``) emit, and the traffic, collectives, sync
and mini-MPI libraries share the value and fragment codecs.  Every type
byte is declared here, and the table is checked for duplicates at
import.  Every message fits the 88-byte Basic payload cap.
"""

from __future__ import annotations

import struct
from typing import Dict, Optional, Tuple, Type, Union

from repro.common.errors import FirmwareError, NetworkError, ProgramError

#: the Basic message payload cap: the 8-byte CTRL header plus 88 bytes
#: fill one 96-byte Arctic packet (:mod:`repro.niu.msgformat`).
MAX_PAYLOAD = 88

# -- type bytes ----------------------------------------------------------------
MSG_DMA_REQ = 1  #: aP -> local sP: perform a block memory transfer
MSG_BT45_ARM = 2  #: aP -> local sP: arm Approach-4/5 optimistic notification
MSG_BT2_CHUNK = 3  #: sender sP -> receiver sP: Approach-2 data chunk
MSG_BT2_DONE = 4  #: sender sP -> receiver sP: Approach-2 final notification
MSG_NUMA_RREQ = 5  #: requester sP -> home sP: NUMA read
MSG_NUMA_RREP = 6  #: home sP -> requester sP: NUMA read data
MSG_NUMA_WREQ = 7  #: requester sP -> home sP: NUMA (posted) write
MSG_SCOMA_RREQ = 8  #: requester sP -> home sP: S-COMA read-shared request
MSG_SCOMA_WREQ = 9  #: requester sP -> home sP: S-COMA write-owned request
MSG_SCOMA_INV = 10  #: home sP -> sharer sP: invalidate line
MSG_SCOMA_INVACK = 11  #: sharer sP -> home sP: invalidation done
MSG_SCOMA_WBREQ = 12  #: home sP -> owner sP: recall (writeback) line
MSG_SCOMA_WBDATA = 13  #: owner sP -> home sP: recalled line data
MSG_SCOMA_EVICT = 14  #: sharer -> home: drop me from the sharer set
MSG_SCOMA_EVICT_DIRTY = 15  #: owner -> home: here is the data, I'm out
MSG_COLL_REQ = 16  #: aP -> local sP: contribute to / start a collective
MSG_COLL_UP = 17  #: child sP -> parent sP: combined subtree contribution
MSG_COLL_DOWN = 18  #: parent sP -> child sP: collective result going down
MSG_REL_SEND = 19  #: aP -> local sP: submit one reliable-delivery segment
MSG_REL_DATA = 20  #: sender sP -> receiver sP: go-back-N DATA segment
MSG_REL_ACK = 21  #: receiver sP -> sender sP: cumulative acknowledgement
MSG_SYNC_REQ = 22  #: requester -> home sP: endpoint fetch-and-add request
MSG_SYNC_REP = 23  #: home sP / switch -> requester: fetch-and-add reply
MSG_SYNC_INJECT = 24  #: aP -> local sP: inject a sync tag into the fabric
MSG_SYNC_TREE_REP = 26  #: tree root (sP or switch) -> member: collective result
MSG_SYNC_CBAR = 27  #: member -> home sP: central counting-barrier arrival
MSG_SCOMA_EVICT_REQ = 28  #: aP -> own sP: evict this line
MSG_UPDATE_RELEASE = 29  #: aP -> own sP: release an update region
# 25, 30 and 31 are unassigned
MSG_USER = 64  #: first type value free for applications
MSG_KV_REQ = MSG_USER  #: client -> server sP: get/put (value trailing)
MSG_KV_REP = MSG_USER + 1  #: server sP -> client: status + value bytes
MSG_PS_PUSH = MSG_USER + 2  #: worker -> parameter server sP: gradient push
MSG_PS_REP = MSG_USER + 3  #: parameter server sP -> worker: updated weight
MSG_USVC_REQ = MSG_USER + 4  #: parent -> child sP: fan-out stage request
MSG_USVC_REP = MSG_USER + 5  #: child sP -> parent: stage complete

#: the ``N`` value naming no node (a combined sync tag's origin).
NO_NODE = 0xFFFF
#: the largest node id: ``N`` fields and wide CTRL headers
#: (:mod:`repro.niu.msgformat`) carry 0..MAX_NODE, so a machine has at
#: most ``MAX_NODE + 1`` nodes (:meth:`MachineConfig.validate`).
MAX_NODE = NO_NODE - 1
#: field names that hold a node id: :func:`check_table` requires ``N``.
NODE_FIELDS = frozenset({"requester", "origin", "root", "dst_node", "rank",
                         "node"})

_CODES = {"B": "B", "?": "?", "H": "H", "N": "H", "I": "I", "q": "q",
          "A": "HI"}

# field kinds of a layout's slot list
_PLAIN, _ADDR, _LEN = 0, 1, 2


class Layout:
    """One message format: a precompiled big-endian ``struct`` codec with
    an optional leading type byte and an optional tail."""

    __slots__ = ("name", "types", "fields", "size", "error", "max_tail",
                 "_type", "_multi", "_st", "_body", "_tail", "_len_at",
                 "_slots")

    def __init__(self, spec: str, types: Union[int, Tuple[int, ...]] = (),
                 tail: Optional[str] = None,
                 error: Type[Exception] = FirmwareError) -> None:
        self.name = "?"  # set from the registry's variable name
        self.types: Tuple[int, ...] = \
            (types,) if isinstance(types, int) else tuple(types)
        self.error = error
        #: pack rejects a longer length-prefixed tail (ProgramError).
        self.max_tail: Optional[int] = None
        #: the single type byte pack prepends (None: none, or several,
        #: in which case the type is the first field).
        self._type = self.types[0] if len(self.types) == 1 else None
        self._multi = len(self.types) > 1
        fmt = ">" + ("B" if self.types else "")
        slots = [_PLAIN] if self._multi else []
        fields = []
        for token in spec.split():
            if token == "x":
                fmt += "x"
                continue
            name, code = token.split(":")
            fmt += _CODES[code]
            fields.append((name, code))
            slots.append(_ADDR if code == "A" else
                         _LEN if name == tail else _PLAIN)
        #: ``(name, code)`` of each field in wire order (pads left out).
        self.fields: Tuple[Tuple[str, str], ...] = tuple(fields)
        if tail not in (None, "rest") and tail not in dict(fields):
            raise ValueError(f"tail length field {tail!r} not in {spec!r}")
        self._st = struct.Struct(fmt)
        #: the header after a single type byte (what unpack reads).
        self._body = struct.Struct(">" + fmt[2:]) \
            if self._type is not None else self._st
        self.size = self._st.size
        self._tail = tail
        self._len_at = slots.index(_LEN) if _LEN in slots else None
        #: None when pack/unpack pass the struct's values straight through.
        self._slots = tuple(slots) if _ADDR in slots else None

    # -- pack ------------------------------------------------------------

    def pack(self, *fields, tail: bytes = b"") -> bytes:
        """The message: type byte, ``fields`` in wire order, ``tail``."""
        if tail and self._tail is None:
            raise ProgramError(f"{self.name} takes no tail")
        if self._len_at is not None:
            if self.max_tail is not None and len(tail) > self.max_tail:
                raise ProgramError(
                    f"{self.name}: {len(tail)}-byte tail exceeds the "
                    f"{self.max_tail}-byte single-message cap")
            fields = fields[:self._len_at] + (len(tail),) \
                + fields[self._len_at:]
        if self._multi and fields[0] not in self.types:
            raise ProgramError(f"{self.name}: type {fields[0]} is not one "
                               f"of {self.types}")
        if self._slots is not None:
            fields = self._split_addrs(fields)
        try:
            if self._type is None:
                head = self._st.pack(*fields)
            else:
                head = self._st.pack(self._type, *fields)
        except struct.error as exc:
            raise ProgramError(f"{self.name}: {exc}") from None
        return head + tail

    def _split_addrs(self, fields: tuple) -> tuple:
        if len(fields) != len(self._slots):
            extra = self._len_at is not None  # the derived length field
            raise ProgramError(f"{self.name}: expected "
                               f"{len(self._slots) - extra} fields, got "
                               f"{len(fields) - extra}")
        out = []
        for kind, value in zip(self._slots, fields):
            if kind == _ADDR:
                if not 0 <= value < 1 << 48:
                    raise self.error(
                        f"address {value:#x} does not fit 6 bytes")
                out += (value >> 32, value & 0xFFFFFFFF)
            else:
                out.append(value)
        return tuple(out)

    # -- unpack ----------------------------------------------------------

    def unpack(self, p: bytes) -> tuple:
        """The fields of message ``p`` in wire order (plus the tail)."""
        n = len(p)
        if n < self.size or (n != self.size and self._tail is None):
            raise self.error(f"{self.name}: {n}-byte payload, layout is "
                             f"{self.size} bytes: {bytes(p)!r}")
        if self._type is not None:
            if p[0] != self._type:
                raise self.error(f"not a {self.name} message: {bytes(p)!r}")
            values = self._body.unpack_from(p, 1)
        else:
            values = self._st.unpack_from(p)
            if self.types and values[0] not in self.types:
                raise self.error(f"not a {self.name} message: {bytes(p)!r}")
        if self._slots is not None:
            values = self._join_addrs(values)
        tail = self._tail
        if tail is None:
            return values
        if tail == "rest":
            return values + (p[self.size:],)
        at = self._len_at
        end = self.size + values[at]
        if n < end:
            raise self.error(f"{self.name}: tail claims {values[at]} bytes, "
                             f"{n - self.size} present: {bytes(p)!r}")
        return values[:at] + values[at + 1:] + (p[self.size:end],)

    def _join_addrs(self, values: tuple) -> tuple:
        out = []
        it = iter(values)
        for kind in self._slots:
            if kind == _ADDR:
                out.append((next(it) << 32) | next(it))
            else:
                out.append(next(it))
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Layout {self.name} {self.size}B types={self.types}>"


# -- block transfer and DMA ------------------------------------------------------
DMA_REQ = Layout("src_addr:A dst_node:N dst_addr:A length:I notify_queue:B "
                 "mode:B", types=MSG_DMA_REQ)
BT45_ARM = Layout("mode:B addr:A length:I", types=MSG_BT45_ARM)
#: Approach-2 chunk descriptor; the data is the TagOn attachment after it.
BT2_CHUNK = Layout("x addr:A", types=MSG_BT2_CHUNK, tail="rest")
BT2_DONE = Layout("notify_queue:B token:I", types=MSG_BT2_DONE)
#: a completion notification's payload (DMA and Approach 2).
DMA_NOTIFY = Layout("length:I")

# -- NUMA and S-COMA shared memory ---------------------------------------------
NUMA_RREQ = Layout("size:B addr:A", types=MSG_NUMA_RREQ)
NUMA_RREP = Layout("length:B addr:A", types=MSG_NUMA_RREP, tail="length")
NUMA_WREQ = Layout("length:B addr:A", types=MSG_NUMA_WREQ, tail="length")
SCOMA_REQ = Layout("x offset:I",
                   types=(MSG_SCOMA_RREQ, MSG_SCOMA_WREQ))
SCOMA_INV = Layout("x offset:I", types=MSG_SCOMA_INV)
SCOMA_INVACK = Layout("x offset:I", types=MSG_SCOMA_INVACK)
SCOMA_WBREQ = Layout("downgrade:? offset:I", types=MSG_SCOMA_WBREQ)
SCOMA_WBDATA = Layout("length:B offset:I", types=MSG_SCOMA_WBDATA,
                      tail="length")
SCOMA_EVICT = Layout("x offset:I", types=MSG_SCOMA_EVICT)
SCOMA_EVICT_DIRTY = Layout("length:B offset:I", types=MSG_SCOMA_EVICT_DIRTY,
                           tail="length")
SCOMA_EVICT_REQ = Layout("x offset:I", types=MSG_SCOMA_EVICT_REQ)
UPDATE_RELEASE = Layout("notify_queue:B", types=MSG_UPDATE_RELEASE)

# -- collectives and the mini-MPI fragment ----------------------------------------
#: one layout for REQ/UP/DOWN.  ``(reply_queue, seq)`` keys the
#: firmware combining state: the reply queue names the communicator, and
#: the 32-bit ``seq`` means host-side 15-bit tag wraps never alias
#: in-flight state; ``tag`` is the mini-MPI fragment tag the aP waits
#: on.  The root is the installed plan's, rank 0.
COLL = Layout("kind:B x x seq:I x reply_queue:B tag:H length:B",
              types=(MSG_COLL_REQ, MSG_COLL_UP, MSG_COLL_DOWN),
              tail="length")
#: a mini-MPI fragment (no type byte: it lands in the aP's own queue).
MPI_FRAG = Layout("tag:H total:I offset:I", tail="rest", error=ProgramError)
#: a 64-bit signed contribution or result.
VALUE = Layout("value:q")

# -- reliable delivery (go-back-N) --------------------------------------------------
REL_SEND = Layout("dst_queue:B dst_node:N", types=MSG_REL_SEND, tail="rest")
REL_DATA = Layout("dst_queue:B seq:H", types=MSG_REL_DATA, tail="rest")
REL_ACK = Layout("x ack:H", types=MSG_REL_ACK)

# -- scalable synchronization -------------------------------------------------------
SYNC_REQ = Layout("group:I cell:I x x x x x req:I reply_queue:B value:q "
                  "x x x x x x x x", types=MSG_SYNC_REQ)
#: fetch-and-add reply, from the home sP or a combining switch.
SYNC_REP = Layout("req:I x value:q", types=MSG_SYNC_REP)
#: carries one packed :data:`SYNC_TAG` as its tail.
SYNC_INJECT = Layout("", types=MSG_SYNC_INJECT, tail="rest")
#: collective result, from the central sP or the tree's switches.
SYNC_TREE_REP = Layout("group:I seq:I value:q", types=MSG_SYNC_TREE_REP)
SYNC_CBAR = Layout("group:I seq:I x x x x n:I reply_queue:B x value:q",
                   types=MSG_SYNC_CBAR)
#: the switch combining header (:class:`repro.net.combine.SyncTag`);
#: ``origin`` is the member a leaf request came from, :data:`NO_NODE`
#: once combined.
SYNC_TAG = Layout("phase:B mode:B group:I cell:I seq:I x reply_queue:B "
                  "value:q x x x x x x x x token:I x x origin:N x x x x",
                  error=NetworkError)

# -- serving applications (``MSG_USER`` and up) ----------------------------------
#: a KV PUT's value is the trailing bytes.
KV_REQ = Layout("op:B reply_queue:B x x req_id:I key:I x x",
                types=MSG_KV_REQ, tail="rest")
KV_REP = Layout("status:B req_id:I", types=MSG_KV_REP, tail="rest")
PS_PUSH = Layout("reply_queue:B x x step:I block:I n_workers:H grad:q",
                 types=MSG_PS_PUSH)
PS_REP = Layout("x step:I block:I weight:q", types=MSG_PS_REP)
USVC_REQ = Layout("depth:B fanout:B reply_queue:B x x ctx:I svc_insns:I",
                  types=MSG_USVC_REQ)
USVC_REP = Layout("x ctx:I", types=MSG_USVC_REP)

# -- aP-to-aP library messages ----------------------------------------------------
#: one token on an Express channel (:mod:`repro.lib.channels`).
TOKEN = Layout("channel:B value:I", error=ProgramError)


def check_table(table: Dict[str, Layout]) -> None:
    """Raise ``ValueError`` unless every type byte has one layout, every
    header fits the payload cap and every node field uses code ``N``."""
    owner: Dict[int, str] = {}
    for name, layout in table.items():
        if layout.size > MAX_PAYLOAD:
            raise ValueError(f"{name} is {layout.size} bytes, over the "
                             f"{MAX_PAYLOAD}-byte payload cap")
        for field, code in layout.fields:
            if field in NODE_FIELDS and code != "N":
                raise ValueError(f"{name}.{field} holds a node id: code N, "
                                 f"not {code}")
        for t in layout.types:
            if t in owner:
                raise ValueError(f"type byte {t} is claimed by both "
                                 f"{owner[t]} and {name}")
            owner[t] = name


#: every layout, by name.
TABLE: Dict[str, Layout] = {
    name: value for name, value in globals().items()
    if isinstance(value, Layout)
}
for _name, _layout in TABLE.items():
    _layout.name = _name
del _name, _layout
check_table(TABLE)
#: the largest data section a collective message carries; the result is
#: delivered as one mini-MPI fragment, whose header is smaller.
COLL_MAX_DATA = COLL.max_tail = MAX_PAYLOAD - COLL.size
