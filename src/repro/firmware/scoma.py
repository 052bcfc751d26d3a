"""S-COMA firmware: a home-based MSI directory protocol over clsSRAM.

"A simple, cache only memory access mechanism (S-COMA) allows a region
of DRAM to be used as a level 3 (L3) cache.  The single ported SRAM
(clsSRAM) is used to maintain cache-line state bits that are checked by
the aBIU.  If the check fails, the bus operation is passed to firmware
for servicing.  Data supplied by a remote node for a pending read can be
received via the remote command queue to avoid firmware execution on the
return."

Protocol summary (line granularity, home = assigned per line):

* every node's S-COMA DRAM window holds a frame per line; the home's
  frame is the memory copy;
* a read miss sends ``RREQ`` to the home, which forwards the line as a
  ``CmdWriteDram(set_cls_state=RO)`` straight into the requester's frame
  — the requester's retried bus operation then completes with **no
  requester-side firmware on the return path** (the paper's key trick);
* a write miss/upgrade sends ``WREQ``; the home invalidates the sharers
  (``INV``/``INVACK``) or recalls the exclusive owner (``WBREQ``/
  ``WBDATA``) before granting ownership;
* the home's own aP participates as an implicit sharer whose "frame"
  *is* memory, so home-side transitions only flip clsSRAM bits and kill
  stale L2 lines.

This module is the protocol's *mechanism*: it moves data, sends
messages, and flips clsSRAM bits.  Every *decision* — grant, queue,
invalidate, recall, drop — comes from the per-node
:class:`repro.coherence.directory.DirectoryController`, which applies
the data-driven transition tables in :mod:`repro.coherence.protocol`.
Requests that hit a line mid-transition queue on the directory entry
and replay in arrival order, so the protocol is free of request/request
races; all protocol traffic uses the high network priority, keeping
replies from deadlocking behind bulk data.

Late echoes of already-settled transitions (a recall crossing a dirty
eviction, an eviction from a previous ownership epoch) are detected by
the controller's owner check and counted+dropped without touching the
frame — re-applying them would overwrite newer data or resurrect a
relinquished copy.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Generator, List, Optional, Sequence,
                    Tuple)

from repro.bus.ops import OP_FLUSH, OP_KILL, OP_RWITM, OP_WRITE, OP_WRITE_LINE
from repro.coherence.directory import DirectoryController
from repro.common.errors import FirmwareError
from repro.common.wire import (
    MSG_SCOMA_EVICT,
    MSG_SCOMA_EVICT_DIRTY,
    MSG_SCOMA_EVICT_REQ,
    MSG_SCOMA_INV,
    MSG_SCOMA_INVACK,
    MSG_SCOMA_RREQ,
    MSG_SCOMA_WBDATA,
    MSG_SCOMA_WBREQ,
    MSG_SCOMA_WREQ,
    SCOMA_EVICT,
    SCOMA_EVICT_DIRTY,
    SCOMA_EVICT_REQ,
    SCOMA_INV,
    SCOMA_INVACK,
    SCOMA_REQ,
    SCOMA_WBDATA,
    SCOMA_WBREQ,
)
from repro.firmware.base import (
    fw_dram_read,
    fw_dram_write,
    fw_send_to,
    register_msg_handler,
)
from repro.niu.clssram import CLS_INVALID, CLS_RO, CLS_RW
from repro.niu.commands import (
    LOCAL_CMDQ_0,
    CmdBusOp,
    CmdForward,
    CmdWriteDram,
)
from repro.niu.niu import SP_PROTOCOL_QUEUE, SP_TX_PROTOCOL

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event

# directory states, re-exported for callers that predate the coherence
# package (tests, inspection tooling).
from repro.coherence.protocol import BUSY, EXCLUSIVE, HOME_VALID  # noqa: F401
from repro.coherence.directory import DirEntry  # noqa: F401

#: Behavior-model switch for the interleaving explorer
#: (:mod:`repro.explore.models`, model ``"kill_grant"``).  When False,
#: a remote RW grant at a home that still holds the line Modified
#: revokes with a blunt KILL instead of a FLUSH — the pre-fix bug that
#: destroys home stores still sitting dirty in L2 before the frame
#: snapshot, which the explorer re-finds as a regression.  Always True
#: in normal runs.
GRANT_PRESERVES_HOME_STORES = True


class HomeMap:
    """S-COMA line -> home node, built once per machine and shared
    read-only by every node's :class:`ScomaState` (DESIGN.md §8.4)."""

    __slots__ = ("homes", "_lines_at")

    def __init__(self, homes: Sequence[int]) -> None:
        self.homes: Tuple[int, ...] = tuple(homes)
        lines_at: Dict[int, List[int]] = {}
        for line, home in enumerate(self.homes):
            lines_at.setdefault(home, []).append(line)
        self._lines_at = lines_at

    @classmethod
    def for_machine(cls, node, n_nodes: int,
                    scoma_home_of: Optional[Sequence[int]] = None
                    ) -> "HomeMap":
        """The machine's map, shaped by any one of its nodes.

        ``scoma_home_of`` assigns a home node per S-COMA line (defaults
        to round-robin by page).
        """
        if scoma_home_of is not None:
            return cls(scoma_home_of)
        config = node.config
        lines_per_page = config.dram.page_bytes // config.bus.line_bytes
        return cls((line // lines_per_page) % n_nodes
                   for line in range(node.niu.cls.n_lines))

    def home_states(self, node_id: int) -> bytearray:
        """``node_id``'s initial clsSRAM states: RW where it is home."""
        states = bytearray([CLS_INVALID]) * len(self.homes)
        for line in self._lines_at.get(node_id, ()):
            states[line] = CLS_RW
        return states


class ScomaState:
    """Per-node S-COMA firmware state."""

    __slots__ = ("home_of", "scoma_base", "line_bytes", "staging", "dir")

    def __init__(self, home_of: Sequence[int], scoma_base: int, line_bytes: int,
                 staging: int, node_id: int) -> None:
        self.home_of = home_of
        self.scoma_base = scoma_base
        self.line_bytes = line_bytes
        self.staging = staging
        #: this node's directory controller (lines it is home for).
        self.dir = DirectoryController(node_id)

    def entry(self, line: int) -> DirEntry:
        return self.dir.entry(line)

    def line_of_offset(self, offset: int) -> int:
        return offset // self.line_bytes

    def frame_addr(self, line: int) -> int:
        return self.scoma_base + line * self.line_bytes


def setup_scoma(sp: "ServiceProcessor", home_map: HomeMap) -> None:
    """Install S-COMA firmware and initialize clsSRAM home states."""
    niu = sp.state["niu"]
    cls = niu.cls
    staging = niu.alloc_ssram(64)
    st = ScomaState(home_map.homes, cls.cover_base, cls.line_bytes, staging,
                    sp.node_id)
    sp.state["scoma"] = st
    cls.load_states(home_map.home_states(sp.node_id))
    sp.register("scoma_miss", handle_miss)
    register_msg_handler(sp, MSG_SCOMA_RREQ, handle_request_msg)
    register_msg_handler(sp, MSG_SCOMA_WREQ, handle_request_msg)
    register_msg_handler(sp, MSG_SCOMA_INV, handle_invalidate)
    register_msg_handler(sp, MSG_SCOMA_INVACK, handle_invack)
    register_msg_handler(sp, MSG_SCOMA_WBREQ, handle_writeback_req)
    register_msg_handler(sp, MSG_SCOMA_WBDATA, handle_writeback_data)
    install_eviction(sp)


def _send_proto(sp: "ServiceProcessor", dst: int, payload: bytes
                ) -> Generator["Event", None, None]:
    """Send one protocol message to ``dst``'s SP_PROTOCOL_QUEUE (always
    the high network priority)."""
    yield from fw_send_to(sp, dst, SP_PROTOCOL_QUEUE, payload,
                          tx=SP_TX_PROTOCOL)


# ----------------------------------------------------------------------
# requester side
# ----------------------------------------------------------------------

_WRITE_OPS = (OP_WRITE, OP_WRITE_LINE, OP_RWITM,
              OP_KILL)


def handle_miss(sp: "ServiceProcessor", event: Tuple
                ) -> Generator["Event", None, None]:
    """An aP access failed the clsSRAM check: request the line."""
    _kind, op, line_base = event
    yield sp.compute(sp.fw.scoma_miss_insns)
    st: ScomaState = sp.state["scoma"]
    line = (line_base - st.scoma_base) // st.line_bytes
    want_rw = op in _WRITE_OPS
    home = st.home_of[line]
    if home == sp.node_id:
        yield from home_request(sp, want_rw, line, sp.node_id)
    else:
        yield from _send_proto(
            sp, home, SCOMA_REQ.pack(MSG_SCOMA_WREQ if want_rw else MSG_SCOMA_RREQ,
                                     line * st.line_bytes))


# ----------------------------------------------------------------------
# home side
# ----------------------------------------------------------------------

def handle_request_msg(sp: "ServiceProcessor", src: int, payload: bytes
                       ) -> Generator["Event", None, None]:
    """RREQ/WREQ arriving at the home node."""
    kind, offset = SCOMA_REQ.unpack(payload)
    want_rw = kind == MSG_SCOMA_WREQ
    yield sp.compute(sp.fw.scoma_home_insns)
    st: ScomaState = sp.state["scoma"]
    yield from home_request(sp, want_rw, st.line_of_offset(offset), src)


def home_request(sp: "ServiceProcessor", want_rw: bool, line: int,
                 requester: int) -> Generator["Event", None, None]:
    """Serve (or queue) one coherence request at the home."""
    st: ScomaState = sp.state["scoma"]
    if st.home_of[line] != sp.node_id:
        raise FirmwareError(f"node {sp.node_id} is not home for line {line}")
    action = st.dir.request(line, want_rw, requester)
    kind = action[0]
    if kind == "queue":
        return
    if kind == "dup":
        # stale duplicate: the requester was invalidated after sending its
        # first request and re-missed before the (in-flight) grant landed.
        # The grant will satisfy the retrying access; dropping the
        # duplicate here is the only safe response — re-granting would
        # overwrite the owner's (possibly modified) frame with stale home
        # data.
        sp.stats.counter(f"{sp.name}.scoma_dup_requests").incr()
        return
    if kind == "invalidate":
        # write request: invalidate every other sharer first
        targets = action[1]
        sp.stats.counter(f"{sp.name}.scoma_inv_sent").incr(len(targets))
        for sharer in targets:
            yield from _send_proto(
                sp, sharer, SCOMA_INV.pack(line * st.line_bytes))
        return
    if kind == "recall":
        owner, downgrade_to_ro = action[1], action[2]
        yield from _send_proto(
            sp, owner, SCOMA_WBREQ.pack(downgrade_to_ro, line * st.line_bytes))
        return
    # ("grant", want_rw, requester, keep_ro): the directory has settled;
    # move the data and flip the state bits.
    yield from _grant(sp, line, action[1], action[2], None)


def _grant(sp: "ServiceProcessor", line: int, want_rw: bool, requester: int,
           data) -> Generator["Event", None, None]:
    """Execute a grant at the home: move data and set line states.

    Pure mechanism — the directory bookkeeping already happened in the
    controller when the grant action was decided.
    """
    st: ScomaState = sp.state["scoma"]
    cls = sp.state["niu"].cls
    frame = st.frame_addr(line)
    if requester == sp.node_id:
        if want_rw:
            yield from _set_own_cls(sp, line, CLS_RW, cause="grant")
            return
        yield from _set_own_cls(sp, line, CLS_RO, cause="grant")
        sp.stats.accumulator("scoma.sharer_occupancy").add(
            float(st.dir.sharer_count(line)))
        return
    # Remote requester.  Revoke/downgrade the home's own access BEFORE
    # snapshotting the frame: the home aP writes through its own
    # write-back L2, so a store landing between the frame read and a
    # later state flip would exist only in a copy the grant no longer
    # covers.  Flipped first, any straggler store either still hits the
    # Modified L2 line (flushed into the granted bytes below) or misses
    # and queues at the directory behind this grant.
    home_had_rw = cls.state(line) == CLS_RW
    if not GRANT_PRESERVES_HOME_STORES and data is None and want_rw \
            and home_had_rw:
        # behavior model: revoke with a blunt KILL instead of the FLUSH
        # below — stores still Modified in the home's L2 are destroyed
        # (a KILL invalidates without a push), so the frame read returns
        # whatever subset had already been written back
        yield from _set_own_cls(sp, line, CLS_INVALID, cause="yield_owner",
                                kill_l2=True)
        data = yield from fw_dram_read(sp, frame, st.line_bytes, st.staging)
    elif want_rw:
        yield from _set_own_cls(sp, line, CLS_INVALID, cause="yield_owner",
                                kill_l2=not home_had_rw)
    elif home_had_rw:
        yield from _set_own_cls(sp, line, CLS_RO, cause="downgrade")
    if data is None:
        if home_had_rw:
            # the newest bytes may sit Modified in the home's L2: FLUSH
            # pushes them into the frame and invalidates the copy (a
            # KILL would destroy them — the WBREQ/evict paths agree)
            yield from sp.sbiu.enqueue_command(
                LOCAL_CMDQ_0,
                CmdBusOp(OP_FLUSH, frame, st.line_bytes),
            )
        data = yield from fw_dram_read(sp, frame, st.line_bytes, st.staging)
    new_state = CLS_RW if want_rw else CLS_RO
    sp.stats.counter(f"{sp.name}.scoma_forwards").incr()
    yield from sp.sbiu.enqueue_command(
        LOCAL_CMDQ_0,
        CmdForward(requester, CmdWriteDram(frame, data,
                                           set_cls_state=new_state)),
    )
    if not want_rw:
        sp.stats.accumulator("scoma.sharer_occupancy").add(
            float(st.dir.sharer_count(line)))


def _set_own_cls(sp: "ServiceProcessor", line: int, state: int,
                 kill_l2: bool = False, cause: str = None
                 ) -> Generator["Event", None, None]:
    st: ScomaState = sp.state["scoma"]
    cls = sp.state["niu"].cls
    yield sp.compute(sp.fw.cls_update_insns)
    yield from sp.sbiu.immediate(
        lambda: cls.set_state(line, state, cause=cause))
    if kill_l2:
        yield from sp.sbiu.enqueue_command(
            LOCAL_CMDQ_0,
            CmdBusOp(OP_KILL, st.frame_addr(line), st.line_bytes),
        )


def _drain_waiters(sp: "ServiceProcessor", line: int
                   ) -> Generator["Event", None, None]:
    """Replay requests queued while the line was BUSY."""
    st: ScomaState = sp.state["scoma"]
    while True:
        waiter = st.dir.pop_waiter(line)
        if waiter is None:
            return
        want_rw, requester = waiter
        yield from home_request(sp, want_rw, line, requester)


# ----------------------------------------------------------------------
# sharer / owner sides
# ----------------------------------------------------------------------

def handle_invalidate(sp: "ServiceProcessor", src: int, payload: bytes
                      ) -> Generator["Event", None, None]:
    """A sharer drops its copy and acknowledges."""
    (offset,) = SCOMA_INV.unpack(payload)
    yield sp.compute(sp.fw.cls_update_insns)
    st: ScomaState = sp.state["scoma"]
    line = st.line_of_offset(offset)
    yield from _set_own_cls(sp, line, CLS_INVALID, kill_l2=True, cause="inv")
    yield from _send_proto(
        sp, src, SCOMA_INVACK.pack(offset))


def handle_invack(sp: "ServiceProcessor", src: int, payload: bytes
                  ) -> Generator["Event", None, None]:
    """Home collects invalidation acks; the last one releases the grant."""
    (offset,) = SCOMA_INVACK.unpack(payload)
    yield sp.compute(sp.fw.scoma_home_insns)
    st: ScomaState = sp.state["scoma"]
    line = st.line_of_offset(offset)
    action = st.dir.ack(line, src)
    if action[0] == "wait":
        return
    sp.stats.counter(f"{sp.name}.scoma_ack_rounds").incr()
    yield from _grant(sp, line, action[1], action[2], None)
    yield from _drain_waiters(sp, line)


def handle_writeback_req(sp: "ServiceProcessor", src: int, payload: bytes
                         ) -> Generator["Event", None, None]:
    """The exclusive owner returns its (possibly dirty) line to the home."""
    downgrade_to_ro, offset = SCOMA_WBREQ.unpack(payload)
    yield sp.compute(sp.fw.scoma_fill_insns)
    st: ScomaState = sp.state["scoma"]
    cls = sp.state["niu"].cls
    line = st.line_of_offset(offset)
    frame = st.frame_addr(line)
    if cls.state(line) != CLS_RW:
        # the copy already left via a voluntary eviction; the EVICT in
        # flight settles the recall at the home.  Answering anyway would
        # resurrect a relinquished line (and ship stale bytes).
        sp.stats.counter(f"{sp.name}.scoma_stale_wbreq").incr()
        return
    # drop write rights BEFORE reading the frame — a store landing after
    # the snapshot would otherwise stay in a copy the writeback missed —
    # then force any Modified L2 data into the frame and read it
    if downgrade_to_ro:
        yield from _set_own_cls(sp, line, CLS_RO, cause="relinquish")
    else:
        yield from _set_own_cls(sp, line, CLS_INVALID, cause="relinquish")
    yield from sp.sbiu.enqueue_command(
        LOCAL_CMDQ_0, CmdBusOp(OP_FLUSH, frame, st.line_bytes)
    )
    data = yield from fw_dram_read(sp, frame, st.line_bytes, st.staging)
    yield from _send_proto(
        sp, src, SCOMA_WBDATA.pack(offset, tail=data))


def handle_writeback_data(sp: "ServiceProcessor", src: int, payload: bytes
                          ) -> Generator["Event", None, None]:
    """Home installs recalled data and completes the pending request."""
    offset, data = SCOMA_WBDATA.unpack(payload)
    yield sp.compute(sp.fw.scoma_home_insns)
    st: ScomaState = sp.state["scoma"]
    line = st.line_of_offset(offset)
    action = st.dir.wbdata(line, src)
    if action[0] == "stale":
        # a dirty eviction raced ahead of the recall and already settled
        # the line; this WBDATA is the recall's late echo — drop it
        sp.stats.counter(f"{sp.name}.scoma_stale_wbdata").incr()
        return
    _kind, want_rw, requester, keep_ro = action
    # fenced: the grant below makes the frame readable (possibly by the
    # home's own retrying aP), so the data must be committed first
    yield from fw_dram_write(sp, st.frame_addr(line), data)
    if keep_ro:
        # the home frame is the memory copy again: home may read it
        yield from _set_own_cls(sp, line, CLS_RO, cause="wb_install")
    yield from _grant(sp, line, want_rw, requester, data)
    yield from _drain_waiters(sp, line)


# ----------------------------------------------------------------------
# capacity management: voluntary frame eviction
# ----------------------------------------------------------------------
#
# The L3 "cache" is local DRAM; when the OS wants a frame back it asks
# firmware to evict the line.  Clean (RO) copies silently leave the
# sharer set; a dirty (RW) copy carries its data home first.  Evictions
# race benignly with the home's own invalidations/recalls: the home
# treats an eviction that crosses a recall as the recall's writeback,
# and late echoes for an already-settled line are counted and dropped.


def install_eviction(sp: "ServiceProcessor") -> None:
    """Enable eviction support (registered by setup_scoma)."""
    register_msg_handler(sp, MSG_SCOMA_EVICT_REQ, handle_evict_request)
    register_msg_handler(sp, MSG_SCOMA_EVICT, handle_evict_notice)
    register_msg_handler(sp, MSG_SCOMA_EVICT_DIRTY, handle_evict_dirty)


def handle_evict_request(sp: "ServiceProcessor", src: int, payload: bytes
                         ) -> Generator["Event", None, None]:
    """Local side: drop the line, telling the home what it needs to know."""
    (offset,) = SCOMA_EVICT_REQ.unpack(payload)
    yield sp.compute(sp.fw.scoma_miss_insns)
    st: ScomaState = sp.state["scoma"]
    cls = sp.state["niu"].cls
    line = st.line_of_offset(offset)
    home = st.home_of[line]
    state = cls.state(line)
    if home == sp.node_id:
        # the home frame IS memory; nothing to evict
        return
    if state == CLS_RO:
        yield from _set_own_cls(sp, line, CLS_INVALID, kill_l2=True,
                                cause="evict")
        yield from _send_proto(
            sp, home, SCOMA_EVICT.pack(offset))
    elif state == CLS_RW:
        # drop rights first (stores after the flip queue at the home),
        # flush newer L2 data into the frame, read it, ship it home
        yield from _set_own_cls(sp, line, CLS_INVALID, cause="evict")
        yield from sp.sbiu.enqueue_command(
            LOCAL_CMDQ_0,
            CmdBusOp(OP_FLUSH, st.frame_addr(line), st.line_bytes),
        )
        data = yield from fw_dram_read(sp, st.frame_addr(line),
                                       st.line_bytes, st.staging)
        yield from _send_proto(
            sp, home, SCOMA_EVICT_DIRTY.pack(offset, tail=data))
    # INVALID/PENDING: nothing cached here; the request is a no-op


def handle_evict_notice(sp: "ServiceProcessor", src: int, payload: bytes
                        ) -> Generator["Event", None, None]:
    """Home side: a sharer dropped its clean copy."""
    (offset,) = SCOMA_EVICT.unpack(payload)
    yield sp.compute(sp.fw.scoma_home_insns)
    st: ScomaState = sp.state["scoma"]
    st.dir.evict_clean(st.line_of_offset(offset), src)


def handle_evict_dirty(sp: "ServiceProcessor", src: int, payload: bytes
                       ) -> Generator["Event", None, None]:
    """Home side: the owner evicted; its data re-validates the home frame.

    If a recall (WBREQ) was already in flight for this line, the eviction
    *is* the writeback: complete the pending request with this data.  An
    eviction from anyone but the recorded owner is a stale echo of a
    previous ownership epoch — its data must not touch the frame.
    """
    offset, data = SCOMA_EVICT_DIRTY.unpack(payload)
    yield sp.compute(sp.fw.scoma_home_insns)
    st: ScomaState = sp.state["scoma"]
    line = st.line_of_offset(offset)
    action = st.dir.evict_dirty(line, src)
    if action[0] == "stale":
        sp.stats.counter(f"{sp.name}.scoma_stale_evicts").incr()
        return
    # fenced for the same reason as the WBDATA install: the state flips
    # below make the frame readable before an unfenced write would land
    yield from fw_dram_write(sp, st.frame_addr(line), data)
    if action[0] == "settle":
        yield from _set_own_cls(sp, line, CLS_RW, cause="settle")
        return
    _kind, want_rw, requester, keep_ro = action
    if keep_ro:
        yield from _set_own_cls(sp, line, CLS_RO, cause="wb_install")
    yield from _grant(sp, line, want_rw, requester, data)
    yield from _drain_waiters(sp, line)
