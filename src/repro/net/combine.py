"""Switch-resident combining: in-network computing for the Arctic fabric.

The Ultracomputer -> exascale lineage (fetch-and-add combining switches,
then SHARP-style in-switch reduction trees) pushes synchronization work
one level below the NIU: requests that *collide at a switch* are merged
into one packet travelling up a planned tree, and the single reply is
*decombined* on the way back down.  This module is the switch side of
that story; :mod:`repro.sync` plans the trees and provides the
user-level primitives.

Two combining modes share one stage:

* ``MODE_TREE`` — collective combining (barrier / allreduce).  Every
  group member contributes exactly once per sequence number; a switch
  waits for its planned contribution count, folds with the op, and
  forwards one combined packet up.  The root turns around and the
  result fans back down the same tree, one packet per tree edge.
* ``MODE_FETCH`` — opportunistic hot-spot combining (fetch-and-add and
  friends).  The target cell lives at the group's root switch.  A
  request opens a short combining window at each switch on its way up;
  later requests for the same (group, cell, op) that arrive within the
  window are folded in.  The switch keeps a *decombine record* — the
  ordered contributions — and when the single reply returns it hands
  each contributor the value it would have seen had the requests been
  applied serially in combining order (the classic serializable
  fetch-and-add guarantee).

Tagged packets (``Packet.sync``) are consumed by the combining stage
instead of consuming route digits, so they carry no source route.  They
ride the fabric's lossless contract: Arctic links are credit flow
controlled and CRC protected, and the fault injector exempts combining
packets from probabilistic loss (a dropped combined request would
otherwise wedge an entire reduction tree — the same reason SHARP runs
over a reliable transport).

Layering: this module may import only ``common``, ``net`` and ``sim``
(ARCH001).  The replies it emits toward member NIUs (``SYNC_REP``,
``SYNC_TREE_REP``) and the tag's own encoding (``SYNC_TAG``) are the
layouts of :mod:`repro.common.wire`, the registry the firmware reads
and writes too — so a waiting member cannot tell (and need not care)
whether its reply came from firmware or from the fabric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.common.errors import NetworkError, ProgramError
from repro.common.wire import NO_NODE, SYNC_REP, SYNC_TAG, SYNC_TREE_REP
from repro.net.packet import PRIORITY_HIGH, Packet, PacketKind
from repro.sim.store import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.switch import ArcticSwitch
    from repro.sim.engine import Engine
    from repro.sim.stats import StatsRegistry

# combining ops ---------------------------------------------------------------
OP_ADD = 0
OP_MIN = 1
OP_MAX = 2
OP_OR = 3
OP_SWAP = 4  #: unconditional exchange; combines.
OP_MUL = 6
OP_AND = 7
OP_XOR = 8

#: the named reduction ops and their wire codes: the one op table every
#: combining path reads (switch ``SyncTag``s, the central sP, the sP
#: collectives tree and MiniMPI's host algorithms).  All are commutative
#: and associative, so any arrival order folds to the same result.
OPS = {"sum": OP_ADD, "prod": OP_MUL, "min": OP_MIN, "max": OP_MAX,
       "band": OP_AND, "bor": OP_OR, "bxor": OP_XOR}


def op_code(name: str) -> int:
    """The wire code of a named reduction op (raises on unknown names)."""
    try:
        return OPS[name]
    except KeyError:
        raise ProgramError(
            f"unknown reduction op {name!r}; known: {sorted(OPS)}"
        ) from None


# tag phases / modes ----------------------------------------------------------
PHASE_REQ = 0
PHASE_DOWN = 1
MODE_TREE = 0
MODE_FETCH = 1


def apply_op(op: int, acc: int, value: int) -> int:
    """Fold one contribution into an accumulator (serialization order)."""
    if op == OP_ADD:
        return acc + value
    if op == OP_MIN:
        return acc if acc <= value else value
    if op == OP_MAX:
        return acc if acc >= value else value
    if op == OP_OR:
        return acc | value
    if op == OP_SWAP:
        return value
    if op == OP_MUL:
        return acc * value
    if op == OP_AND:
        return acc & value
    if op == OP_XOR:
        return acc ^ value
    raise NetworkError(f"op {op} does not combine")


class SyncTag:
    """The in-network computing header riding one tagged packet."""

    __slots__ = ("phase", "mode", "group", "cell", "seq", "op", "value",
                 "token", "origin", "reply_queue", "count")

    def __init__(self, phase: int, mode: int, group: int, op: int,
                 value: int = 0, cell: int = 0, seq: int = 0,
                 token: int = 0, origin: int = NO_NODE, reply_queue: int = 0,
                 count: int = 1) -> None:
        self.phase = phase
        self.mode = mode
        self.group = group
        self.op = op
        self.value = value
        #: fetch mode: which cell of the group; tree mode: unused.
        self.cell = cell
        #: tree mode: the collective sequence number; fetch mode: unused.
        self.seq = seq
        #: fetch mode: requester cookie on a member request, or the
        #: emitting switch's decombine-record handle on a combined hop.
        self.token = token
        #: contributing member node on a leaf request; NO_NODE once
        #: combined.
        self.origin = origin
        #: member's logical rx queue for the final reply.
        self.reply_queue = reply_queue
        #: how many member requests this packet represents (statistics).
        self.count = count

    def pack(self) -> bytes:
        """Wire encoding (size realism; switches read the object fields).
        The wire's ``aux`` field is always 0."""
        return SYNC_TAG.pack(self.phase, self.mode, self.group, self.cell,
                             self.seq, self.op, self.reply_queue, self.value,
                             0, self.token, self.origin, self.count)

    @classmethod
    def unpack(cls, raw: bytes) -> "SyncTag":
        """Decode :meth:`pack` (used by the sP leaf-inject handler)."""
        (phase, mode, group, cell, seq, op, reply_queue, value, _aux, token,
         origin, count) = SYNC_TAG.unpack(raw)
        return cls(phase, mode, group, op, value, cell, seq, token,
                   origin, reply_queue, count)

    def __repr__(self) -> str:  # pragma: no cover
        ph = "REQ" if self.phase == PHASE_REQ else "DOWN"
        md = "tree" if self.mode == MODE_TREE else "fetch"
        return (f"<SyncTag {ph}/{md} g={self.group} cell={self.cell} "
                f"seq={self.seq} op={self.op} "
                f"v={self.value} tok={self.token} origin={self.origin}>")


class GroupProgram:
    """One switch's slice of a planned reduction tree (see
    :mod:`repro.sync.plan`): where contributions come from, where the
    combined packet goes, and where replies fan back out."""

    __slots__ = ("group", "up_port", "down", "is_root")

    def __init__(self, group: int, up_port: Optional[int],
                 down: Tuple[Tuple[int, Optional[int]], ...]) -> None:
        self.group = group
        #: output port toward the tree parent (None at the root).
        self.up_port = up_port
        #: ordered ``(port, member_node_or_None)`` contribution sources;
        #: ``None`` marks a child *switch*, an int a directly attached
        #: member node.  Replies fan out over exactly these ports.
        self.down = down
        self.is_root = up_port is None


class _Slot:
    """An open combining slot: contributions gathered, not yet flushed."""

    __slots__ = ("entries", "acc", "count", "ports")

    def __init__(self) -> None:
        #: ordered contributions: (port, origin, child_token, req_token,
        #: reply_queue, value) — an origin other than NO_NODE marks a
        #: member entry.
        self.entries: List[Tuple[int, int, int, int, int, int]] = []
        self.acc = 0
        self.count = 0
        self.ports: List[int] = []


class CombineStage:
    """The combining pipeline stage of one Arctic switch.

    Created lazily by :mod:`repro.sync` only on switches that
    participate in at least one reduction tree — an unprogrammed switch
    pays one ``pkt.sync is None`` test per packet and nothing else.
    """

    __slots__ = ("engine", "config", "switch", "stats", "sanitizer",
                 "programs", "cells", "slots", "records", "pending_down",
                 "_egress", "_token", "hits", "combined_packets")

    def __init__(self, engine: "Engine", switch: "ArcticSwitch",
                 stats: Optional["StatsRegistry"] = None,
                 sanitizer: Any = None) -> None:
        self.engine = engine
        self.config = switch.config
        self.switch = switch
        self.stats = stats
        #: duck-typed decombine-exactly-once checker
        #: (:class:`repro.analysis.sanitize.CombineSanitizer`) or None.
        self.sanitizer = sanitizer
        self.programs: Dict[int, GroupProgram] = {}
        #: fetch-mode cells homed at this switch: (group, cell) -> value.
        self.cells: Dict[Tuple[int, int], int] = {}
        #: open combining slots.  Tree mode keys (MODE_TREE, group, seq);
        #: fetch mode keys (MODE_FETCH, group, cell, op).
        self.slots: Dict[Tuple, _Slot] = {}
        #: flushed fetch slots awaiting their reply: token -> entries.
        self.records: Dict[int, List[Tuple[int, int, int, int, int, int]]] = {}
        #: tree-mode folds forwarded up, awaiting the down sweep:
        #: (group, seq) -> the contribution entries (for member replies).
        self.pending_down: Dict[Tuple[int, int],
                                List[Tuple[int, int, int, int, int, int]]] = {}
        #: switch-originated packets awaiting the transmitters — a
        #: dedicated egress FIFO so a busy output link cannot wedge the
        #: input lane that triggered the emission.
        self._egress = Store(engine, name=f"{switch.name}.combine.egress")
        engine.process(self._drain(), name=f"{switch.name}.combine.egress",
                       daemon=True)
        self._token = 0
        self.hits = 0
        self.combined_packets = 0

    # -- programming -------------------------------------------------------

    def load(self, prog: GroupProgram) -> None:
        """Install (or replace) one group's tree slice on this switch."""
        self.programs[prog.group] = prog

    def outstanding(self) -> int:
        """Open slots + unreturned decombine records (drain check)."""
        return len(self.slots) + len(self.records) + len(self.pending_down)

    # -- the input side (called from the switch's forwarding lanes) --------

    def accept(self, port: int, pkt: Packet):
        """Consume one tagged packet arriving on ``port``."""
        tag: SyncTag = pkt.sync
        yield self.config.combine_latency_ns
        prog = self.programs.get(tag.group)
        if prog is None:
            raise NetworkError(
                f"{self.switch.name}: sync packet for unprogrammed group "
                f"{tag.group}: {tag!r}"
            )
        if tag.phase == PHASE_DOWN:
            self._down(prog, tag)
        elif tag.mode == MODE_TREE:
            self._tree_req(prog, port, tag)
        else:
            self._fetch_req(prog, port, tag)

    # -- tree mode (barrier / allreduce) -----------------------------------

    def _tree_req(self, prog: GroupProgram, port: int, tag: SyncTag) -> None:
        key = (MODE_TREE, tag.group, tag.seq)
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = _Slot()
            slot.acc = tag.value
            if self.sanitizer is not None:
                self.sanitizer.note_open(self.switch.name, key)
        else:
            slot.acc = apply_op(tag.op, slot.acc, tag.value)
            self.hits += 1
            self._count("combine_hits")
        if port in slot.ports:
            raise NetworkError(
                f"{self.switch.name}: duplicate tree contribution on port "
                f"{port} for group {tag.group} seq {tag.seq}"
            )
        slot.ports.append(port)
        slot.count += tag.count
        slot.entries.append((port, tag.origin, tag.token, tag.token,
                             tag.reply_queue, tag.value))
        if len(slot.ports) < len(prog.down):
            return
        # every planned contribution is in: fold complete
        del self.slots[key]
        token = ("tree", tag.group, tag.seq)
        if self.sanitizer is not None:
            self.sanitizer.note_flush(self.switch.name, key, token,
                                      len(prog.down))
        self._count("combine_folds")
        if prog.is_root:
            self._tree_fanout(prog, tag, slot.acc, slot.entries)
        else:
            self.pending_down[(tag.group, tag.seq)] = slot.entries
            up = SyncTag(PHASE_REQ, MODE_TREE, tag.group, tag.op,
                         value=slot.acc, seq=tag.seq, count=slot.count)
            self._emit_switch(prog.up_port, up)

    def _tree_fanout(self, prog: GroupProgram, tag: SyncTag, value: int,
                     entries: List[Tuple[int, int, int, int, int, int]]
                     ) -> None:
        """The down sweep: one packet per tree edge, members get replies."""
        token = ("tree", tag.group, tag.seq)
        by_port = {e[0]: e for e in entries}
        for port, member in prog.down:
            entry = by_port[port]
            if member is None:
                down = SyncTag(PHASE_DOWN, MODE_TREE, tag.group, tag.op,
                               value=value, seq=tag.seq)
                self._emit_switch(port, down)
            else:
                payload = SYNC_TREE_REP.pack(tag.group, tag.seq, value)
                self._emit_member(port, member, entry[4], payload,
                                  SyncTag(PHASE_DOWN, MODE_TREE, tag.group,
                                          tag.op, value=value, seq=tag.seq,
                                          origin=member))
            if self.sanitizer is not None:
                self.sanitizer.note_reply(self.switch.name, token, port)
        if self.sanitizer is not None:
            self.sanitizer.note_close(self.switch.name, token,
                                      len(prog.down))

    # -- fetch mode (combining fetch-and-op) -------------------------------

    def _fetch_req(self, prog: GroupProgram, port: int, tag: SyncTag) -> None:
        if prog.is_root:
            self._fetch_apply_root(prog, port, tag)
            return
        key = (MODE_FETCH, tag.group, tag.cell, tag.op)
        slot = self.slots.get(key)
        entry = (port, tag.origin, tag.token, tag.token, tag.reply_queue,
                 tag.value)
        if slot is None:
            slot = _Slot()
            slot.acc = tag.value
            slot.count = tag.count
            slot.entries.append(entry)
            self.slots[key] = slot
            if self.sanitizer is not None:
                self.sanitizer.note_open(self.switch.name, key)
            self.engine.process(self._window(prog, key),
                                name=f"{self.switch.name}.window",
                                daemon=True)
        else:
            slot.acc = apply_op(tag.op, slot.acc, tag.value)
            slot.count += tag.count
            slot.entries.append(entry)
            self.hits += 1
            self._count("combine_hits")

    def _window(self, prog: GroupProgram, key: Tuple):
        """Hold one fetch slot open for the combining window, then flush."""
        yield self.config.combine_window_ns
        slot = self.slots.pop(key, None)
        if slot is not None:
            self._flush_fetch(prog, key, slot)

    def _flush_fetch(self, prog: GroupProgram, key: Tuple, slot: _Slot
                     ) -> None:
        self._token += 1
        token = self._token
        self.records[token] = slot.entries
        if self.sanitizer is not None:
            self.sanitizer.note_flush(self.switch.name, key, token,
                                      len(slot.entries))
        self._count("combine_folds")
        self.combined_packets += 1
        _mode, group, cell, op = key
        up = SyncTag(PHASE_REQ, MODE_FETCH, group, op, value=slot.acc,
                     cell=cell, token=token, count=slot.count)
        self._emit_switch(prog.up_port, up)

    def _fetch_apply_root(self, prog: GroupProgram, port: int, tag: SyncTag
                          ) -> None:
        """Apply at the cell's home switch and turn the reply around."""
        ckey = (tag.group, tag.cell)
        old = self.cells.get(ckey, 0)
        self.cells[ckey] = apply_op(tag.op, old, tag.value)
        self._count("cell_ops")
        if tag.origin != NO_NODE:
            self._member_fetch_reply(port, tag.origin, tag.reply_queue,
                                     tag.token, old, tag)
        else:
            down = SyncTag(PHASE_DOWN, MODE_FETCH, tag.group, tag.op,
                           value=old, cell=tag.cell, token=tag.token)
            self._emit_switch(port, down)

    def _down(self, prog: GroupProgram, tag: SyncTag) -> None:
        """A reply descending the tree: decombine (fetch) or fan out
        (tree)."""
        if tag.mode == MODE_TREE:
            entries = self.pending_down.pop((tag.group, tag.seq), None)
            if entries is None:
                self._orphan(tag)
                return
            self._tree_fanout(prog, tag, tag.value, entries)
            return
        entries = self.records.pop(tag.token, None)
        if entries is None:
            self._orphan(tag)
            return
        running = tag.value
        for port, origin, child_token, _req, reply_queue, value in entries:
            if origin != NO_NODE:
                self._member_fetch_reply(port, origin, reply_queue,
                                         child_token, running, tag)
            else:
                down = SyncTag(PHASE_DOWN, MODE_FETCH, tag.group, tag.op,
                               value=running, cell=tag.cell,
                               token=child_token)
                self._emit_switch(port, down)
            if self.sanitizer is not None:
                self.sanitizer.note_reply(self.switch.name, tag.token, port)
            running = apply_op(tag.op, running, value)
        if self.sanitizer is not None:
            self.sanitizer.note_close(self.switch.name, tag.token,
                                      len(entries))
        self._count("decombines")

    def _orphan(self, tag: SyncTag) -> None:
        """A reply nobody is waiting for — exactly the bug the combine
        sanitizer exists to catch; without it, count and drop."""
        if self.sanitizer is not None:
            self.sanitizer.orphan(self.switch.name, tag)
        self._count("orphan_replies")

    def _member_fetch_reply(self, port: int, member: int, reply_queue: int,
                            req_token: int, value: int, tag: SyncTag) -> None:
        payload = SYNC_REP.pack(req_token, True, value)
        reply = SyncTag(PHASE_DOWN, MODE_FETCH, tag.group, tag.op,
                        value=value, cell=tag.cell, token=req_token,
                        origin=member)
        self._emit_member(port, member, reply_queue, payload, reply)

    # -- egress ------------------------------------------------------------

    def _emit_switch(self, port: Optional[int], tag: SyncTag) -> None:
        if port is None:
            raise NetworkError(f"{self.switch.name}: no up port for {tag!r}")
        pkt = Packet(PacketKind.DATA, src=0, dst=0, dst_queue=0,
                     payload=tag.pack(), priority=PRIORITY_HIGH,
                     header_bytes=self.config.header_bytes, sync=tag)
        pkt.inject_time = self.engine.now
        self._egress.try_put((port, pkt))

    def _emit_member(self, port: int, member: int, reply_queue: int,
                     payload: bytes, tag: SyncTag) -> None:
        """The last hop: an ordinary DATA delivery into the member's NIU
        (still sync-tagged so it shares the lossless contract)."""
        pkt = Packet(PacketKind.DATA, src=member, dst=member,
                     dst_queue=reply_queue, payload=payload,
                     priority=PRIORITY_HIGH,
                     header_bytes=self.config.header_bytes, sync=tag)
        pkt.inject_time = self.engine.now
        self._egress.try_put((port, pkt))

    def _drain(self):
        while True:
            port, pkt = yield self._egress.get()
            out = self.switch.out_links.get(port)
            if out is None:
                raise NetworkError(
                    f"{self.switch.name}: combining stage routed to "
                    f"unconnected port {port}"
                )
            self.switch.packets_forwarded += 1
            yield from out.send(pkt)

    def _count(self, which: str) -> None:
        if self.stats is not None:
            self.stats.counter(f"{self.switch.name}.{which}").incr()
