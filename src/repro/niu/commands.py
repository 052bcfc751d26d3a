"""CTRL command queues and the command repertoire.

CTRL manages two *local* command queues — through which sP firmware (via
the sBIU) issues work to CTRL, the aBIU and the network — and one
*remote* command queue fed by COMMAND packets from other nodes.  Each
queue processes its commands strictly in order ("making the queues very
useful for shared-memory protocol processing"), except block operations,
which are handed to the block units and complete asynchronously.

Commands are modeled as small objects rather than packed bytes; the ones
that travel on the wire know their encoded size so packets are charged
the right serialization time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.common.errors import QueueError

#: identifiers for the command queues: two local (sP/sBIU-fed), plus one
#: remote queue per network priority.  Splitting the remote queue by
#: priority is what keeps protocol replies (HIGH) from head-of-line
#: blocking behind bulk-data writes (LOW) — the queue-level counterpart
#: of the paper's two-priority network requirement.
LOCAL_CMDQ_0 = 0
LOCAL_CMDQ_1 = 1
REMOTE_CMDQ = 2
REMOTE_CMDQ_HIGH = 3


class Command:
    """Base class; subclasses define execution in the command processor."""

    #: wire size when carried in a COMMAND packet (header excluded).
    def wire_bytes(self) -> int:
        return 8


@dataclass
class CmdWriteDram(Command):
    """Write ``data`` into aP DRAM at ``addr`` (via aBIU bus mastering).

    This is the command block transmit puts on the wire so that "the sent
    data [is copied] into the destination's aP DRAM" without firmware.
    ``set_cls_state`` carries the Approach-5 extension: the modified aBIU
    also updates the clsSRAM state for the covered lines after the move.
    """

    addr: int
    data: bytes
    set_cls_state: Optional[int] = None
    #: Approach 4: poke the destination sP after the write lands.
    notify_sp: bool = False

    def __post_init__(self) -> None:
        # Protection boundary: the command may be handed a zero-copy view
        # of SRAM whose slot is recycled while the command is in flight —
        # pin the payload as immutable bytes exactly once, here.
        if type(self.data) is not bytes:
            self.data = bytes(self.data)

    def wire_bytes(self) -> int:
        return 8 + len(self.data)


@dataclass
class CmdReadDram(Command):
    """Read ``length`` bytes of aP DRAM into SRAM ``(bank, offset)``."""

    addr: int
    length: int
    bank: int
    offset: int


@dataclass
class CmdWriteDramFromSram(Command):
    """Move SRAM bytes into aP DRAM without any processor touching them.

    The Approach-2 receive path: firmware reads only the chunk descriptor
    and issues this command against the message's payload bytes sitting
    in the receive-queue SRAM — "neither processor reads the data
    directly".
    """

    bank: int
    offset: int
    dram_addr: int
    length: int


@dataclass
class CmdCopySram(Command):
    """Copy bytes from one SRAM location to another across the IBus."""

    src_bank: int
    src_offset: int
    dst_bank: int
    dst_offset: int
    length: int


@dataclass
class CmdSendMessage(Command):
    """Compose and launch a message from the command stream.

    The header/payload semantics match a normal transmit-queue entry;
    TagOn pickup applies.  ``queue`` names the tx queue whose permissions
    and translation state govern the send (firmware typically owns a
    dedicated tx queue).
    """

    queue: int
    header: Any  # MsgHeader
    payload: bytes = b""


@dataclass
class CmdBlockRead(Command):
    """Block-operation unit: DRAM -> SRAM, up to one aligned page.

    "Block aP bus operations can request that a region of aP DRAM, up to
    one aligned page, be read into aSRAM.  CTRL implements this function
    by issuing a number of bus operations to the aBIU."
    """

    dram_addr: int
    length: int
    bank: int
    offset: int
    #: triggered when the block unit finishes (chaining support).
    done: Any = None


@dataclass
class CmdBlockTx(Command):
    """Block-operation unit: SRAM -> network as remote-write commands.

    "The block transmit command divides a block of data in either SRAM
    bank into packets, adds appropriate headers and bus operations and
    sends them across the network."  ``notify_*`` optionally appends a
    completion message into a receive queue at the destination —
    the am_store-style notification the §6 experiments use.
    ``cls_state``/``notify_sp_each`` carry the Approach-4/5 extensions.
    """

    bank: int
    offset: int
    length: int
    dst_node: int
    dst_addr: int
    notify_queue: Optional[int] = None
    notify_payload: bytes = b""
    #: Approach 5: remote writes also set clsSRAM state for landed lines.
    cls_state: Optional[int] = None
    #: Approach 4: remote command queue pokes the destination sP per chunk.
    notify_sp_each: bool = False
    #: chaining: the unit waits on this event before starting (typically a
    #: CmdBlockRead's ``done`` — the paper's "chained" hardware DMA).
    after: Any = None
    done: Any = None


@dataclass
class CmdNotify(Command):
    """Deliver ``payload`` into local logical rx queue ``queue``.

    Used on the wire as the final packet of a block transfer, and locally
    for firmware-to-application signalling.
    """

    queue: int
    payload: bytes = b""
    src_node: int = 0

    def wire_bytes(self) -> int:
        return 8 + len(self.payload)


@dataclass
class CmdSetClsState(Command):
    """Set clsSRAM state bits for ``n_lines`` lines starting at ``line``."""

    line: int
    n_lines: int
    state: int


@dataclass
class CmdBusOp(Command):
    """Issue an arbitrary bus operation on the aP bus (aBIU mastering).

    The general form of "perform a bus operation on the aP bus"; KILL and
    FLUSH against the L2 ride through here.
    """

    op: Any  # BusOpType
    addr: int
    size: int
    data: Optional[bytes] = None


@dataclass
class CmdForward(Command):
    """Send ``inner`` to another node's remote command queue.

    The firmware path for "reply with data that lands directly in the
    requester's DRAM": S-COMA grants ride this so that "data supplied by
    a remote node for a pending read can be received via the remote
    command queue to avoid firmware execution on the return".
    """

    dst_node: int
    inner: "Command" = None  # type: ignore[assignment]
    priority: int = 0  # PRIORITY_HIGH: protocol replies must overtake data


@dataclass
class CmdCall(Command):
    """Model-level escape hatch: run ``fn()`` in command order.

    Used by tests and reconfiguration experiments to splice custom
    "hardware" actions into the in-order command stream; never on the
    wire.
    """

    fn: Callable[[], None] = lambda: None


class CommandQueue:
    """Bounded in-order command FIFO, drained by a CTRL processor loop."""

    def __init__(self, engine, depth: int, name: str) -> None:
        from repro.sim.store import Store

        self.name = name
        self.store = Store(engine, capacity=depth, name=name)

    def enqueue(self, cmd: Command):
        """Blocking enqueue event (backpressure when the queue is full)."""
        if not isinstance(cmd, Command):
            raise QueueError(f"{self.name}: {cmd!r} is not a Command")
        return self.store.put(cmd)

    def try_enqueue(self, cmd: Command) -> None:
        """Non-blocking enqueue; raises :class:`QueueFullError` when full."""
        if not isinstance(cmd, Command):
            raise QueueError(f"{self.name}: {cmd!r} is not a Command")
        self.store.try_put(cmd)

    def dequeue(self):
        """Event yielding the next command in order."""
        return self.store.get()

    def __len__(self) -> int:
        return len(self.store)
