"""Bus operation types and transactions (60X-bus-like).

The 604's memory bus supports single-beat and burst (cache-line)
transfers, coherence operations, and a retry-based snoop protocol.  The
StarT-Voyager NIU exploits exactly this repertoire: the aBIU observes
every operation, may claim it, retry it, or forward it — and may itself
*issue* operations on behalf of CTRL or sP firmware ("moving control
information over data paths and data information over control paths").
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional


class BusOpType(enum.Enum):
    """The transfer-type repertoire used by the model."""

    #: single-beat read (uncached load), 1..8 bytes.
    READ = "read"
    #: single-beat write (uncached store), 1..8 bytes.
    WRITE = "write"
    #: burst read of one cache line (cache fill, NIU block read).
    READ_LINE = "read_line"
    #: burst read with intent to modify (store miss fill).
    RWITM = "rwitm"
    #: burst write of one cache line (writeback, NIU data push).
    WRITE_LINE = "write_line"
    #: invalidate the line in all caches without data transfer.
    KILL = "kill"
    #: force a modified line out of caches to memory.
    FLUSH = "flush"

    def __init__(self, value: str) -> None:
        # Flags are plain member attributes, set once: they are read on
        # every bus transaction, where a property's membership test showed
        # up in profiles.
        #: True for full-cache-line transfers.
        self.is_burst = value in ("read_line", "rwitm", "write_line")
        #: True when the master receives data.
        self.is_read = value in ("read", "read_line", "rwitm")
        #: True when the master supplies data.
        self.is_write = value in ("write", "write_line")
        #: True when a data tenure occurs at all.
        self.has_data = value not in ("kill", "flush")

    # members are singletons: identity hashing is exact and keeps the
    # ``(op, state)`` table lookups off Enum.__hash__ (DESIGN.md §8.1)
    __hash__ = object.__hash__


#: the members as module constants: hot code loads these globals instead
#: of looking ``BusOpType.X`` up through the enum class (lint PERF003).
OP_READ = BusOpType.READ
OP_WRITE = BusOpType.WRITE
OP_READ_LINE = BusOpType.READ_LINE
OP_RWITM = BusOpType.RWITM
OP_WRITE_LINE = BusOpType.WRITE_LINE
OP_KILL = BusOpType.KILL
OP_FLUSH = BusOpType.FLUSH

_txn_ids = itertools.count()
#: the single-beat ops, whose transfers are limited to 8 bytes.
_SINGLE_BEAT = (OP_READ, OP_WRITE)


class BusTransaction:
    """One bus operation: address/control signals plus the data tenure.

    ``data`` is the write payload for writes, and is filled in with the
    read result for reads.  ``master`` is a diagnostic label.  ``tag`` is
    a free slot the issuing unit can use to smuggle context to a handler —
    the NIU's "address as information" trick uses the *address* for that,
    but pure-model bookkeeping (e.g. which L2 initiated a fill) rides here.
    """

    __slots__ = (
        "txn_id",
        "op",
        "addr",
        "size",
        "data",
        "master",
        "tag",
        "retries",
        "intervened",
    )

    def __init__(
        self,
        op: BusOpType,
        addr: int,
        size: int,
        data: Optional[bytes] = None,
        master: str = "?",
        tag: Any = None,
    ) -> None:
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        if size <= 0:
            raise ValueError(f"transfer size must be positive, got {size}")
        if size > 8 and op in _SINGLE_BEAT:
            raise ValueError(f"single-beat op limited to 8 bytes, got {size}")
        if op.is_write:
            if data is None or len(data) != size:
                raise ValueError(f"{op.value} needs exactly {size} bytes of data")
        self.txn_id = next(_txn_ids)
        self.op = op
        self.addr = addr
        self.size = size
        self.data = data
        self.master = master
        self.tag = tag
        #: number of snoop retries this transaction has absorbed.
        self.retries = 0
        #: set when a snooping cache supplied the data instead of memory.
        self.intervened = False

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<BusTxn#{self.txn_id} {self.op.value} @{self.addr:#x} "
            f"size={self.size} by {self.master}>"
        )
