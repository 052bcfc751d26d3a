"""The home-node directory controller: a pure MSI state machine.

One :class:`DirectoryController` lives on every node's sP (inside the
S-COMA firmware state) and arbitrates the lines that node is home for.
It is deliberately I/O-free: every public method applies one protocol
event from :data:`repro.coherence.protocol.DIR_TABLE` and returns an
*action descriptor* — a plain tuple the firmware interprets into
messages, DRAM moves, and clsSRAM updates.  Keeping the decision logic
here and the mechanism in firmware is what lets the coherence sanitizer
machine-check the decisions independently.

Action descriptors:

===============================  =====================================
returned by                      meaning for the firmware
===============================  =====================================
``("queue",)``                   request queued behind a busy line
``("dup",)``                     duplicate from the current owner —
                                 drop (a grant is already in flight)
``("grant", want_rw, requester)``  move data / flip states for the
                                 requester; the directory is already
                                 settled in its post-grant state
``("invalidate", targets)``      send INV to each target (sorted)
``("recall", owner, downgrade)`` send WBREQ to the owner
``("wait",)``                    ack counted, more outstanding
``("stale",)``                   late echo of a settled transition —
                                 count and drop, do not touch data
``("settle",)``                  dirty eviction re-validated the home
                                 frame: set the home's own line RW
``("removed",)``                 sharer left the sharer set
===============================  =====================================

Grant descriptors carry ``keep_ro=True`` (4th element) when the home
must (re)take a readable copy before forwarding — a read recall or a
read completed by a crossing dirty eviction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.coherence import protocol as P
from repro.common.errors import FirmwareError


class DirEntry:
    """Home-side directory state for one line."""

    __slots__ = ("state", "sharers", "owner", "pending_acks", "pending",
                 "waiters")

    def __init__(self) -> None:
        self.state: str = P.HOME_VALID
        self.sharers: Set[int] = set()
        self.owner: Optional[int] = None
        self.pending_acks: int = 0
        #: the request being completed while BUSY: (want_rw, requester).
        self.pending: Optional[Tuple[bool, int]] = None
        #: queued requests that arrived while BUSY.
        self.waiters: List[Tuple[bool, int]] = []


class DirectoryController:
    """Directory decisions for the lines one node is home for."""

    __slots__ = ("node_id", "directory", "sanitizer")

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.directory: Dict[int, DirEntry] = {}
        #: coherence sanitizer hook (None = checks disabled, zero cost).
        self.sanitizer = None

    def entry(self, line: int) -> DirEntry:
        if line not in self.directory:
            self.directory[line] = DirEntry()
        return self.directory[line]

    def sharer_count(self, line: int) -> int:
        return len(self.entry(line).sharers)

    # -- guards ------------------------------------------------------------

    def _guard(self, name: str, entry: DirEntry, requester: Optional[int],
               src: Optional[int]) -> bool:
        if name == "other_sharers":
            return bool(entry.sharers - {requester})
        if name == "remote_requester":
            return requester != self.node_id
        if name == "requester_is_owner":
            return entry.owner == requester
        if name == "src_is_owner":
            return entry.owner == src
        if name == "stale_writeback":
            return entry.pending is None or entry.owner != src
        if name == "more_acks":
            return entry.pending_acks > 1
        if name == "pending_read":
            return entry.pending is not None and not entry.pending[0]
        raise FirmwareError(f"unknown directory guard {name!r}")

    # -- the single transition point ---------------------------------------

    def _apply(self, line: int, event: str, requester: Optional[int] = None,
               src: Optional[int] = None,
               want_rw: Optional[bool] = None) -> Tuple:
        entry = self.entry(line)
        old = entry.state
        rules = P.DIR_TABLE.get((old, event))
        if rules is None:
            raise FirmwareError(
                f"home {self.node_id}: no directory rules for event "
                f"{event!r} in state {old.upper()} (line {line})"
            )
        # completion events act for the pending request, not the sender
        if event in (P.EV_ACK, P.EV_WBDATA, P.EV_EVICT_DIRTY) \
                and entry.pending is not None:
            want_rw, requester = entry.pending
        for rule in rules:
            if rule.guard is None or self._guard(rule.guard, entry,
                                                requester, src):
                break
        else:
            raise FirmwareError(
                f"home {self.node_id}: no directory rule matched event "
                f"{event!r} in state {old.upper()} (line {line}, "
                f"requester {requester}, src {src})"
            )
        detail = {"requester": requester, "src": src, "want_rw": want_rw,
                  "targets": None}
        if rule.action == "start_invalidate":
            detail["targets"] = tuple(sorted(entry.sharers - {requester}))
        san = self.sanitizer
        if san is not None:
            san.on_dir_transition(self, line, old, rule.next_state, event,
                                  rule.action, detail)
        result = self._mutate(rule.action, entry, detail)
        entry.state = rule.next_state
        return result

    def _mutate(self, action: str, entry: DirEntry, detail: Dict) -> Tuple:
        requester = detail["requester"]
        want_rw = detail["want_rw"]
        if action == "queue":
            entry.waiters.append((bool(want_rw), requester))
            return ("queue",)
        if action == "drop_duplicate":
            return ("dup",)
        if action in ("grant_ro", "install_grant_ro", "settle_grant_ro"):
            keep_ro = action != "grant_ro"
            entry.pending = None
            old_owner, entry.owner = entry.owner, None
            if action == "install_grant_ro" and old_owner is not None:
                # read recall: the downgraded owner stays on as a sharer
                entry.sharers = {old_owner}
            elif action == "settle_grant_ro":
                # the owner evicted everything before the recall landed
                entry.sharers = set()
            if requester != self.node_id:
                entry.sharers.add(requester)
            return ("grant", False, requester, keep_ro)
        if action == "grant_rw_local" or action == "install_grant_rw_local":
            entry.pending = None
            entry.pending_acks = 0
            entry.owner = None
            entry.sharers = set()
            return ("grant", True, requester, False)
        if action == "grant_rw_remote" or action == "install_grant_rw_remote":
            entry.pending = None
            entry.pending_acks = 0
            entry.owner = requester
            entry.sharers = set()
            return ("grant", True, requester, False)
        if action == "start_invalidate":
            targets = detail["targets"]
            entry.pending = (True, requester)
            entry.pending_acks = len(targets)
            return ("invalidate", targets)
        if action == "recall_ro" or action == "recall_inv":
            entry.pending = (bool(want_rw), requester)
            return ("recall", entry.owner, action == "recall_ro")
        if action == "count_ack":
            entry.pending_acks -= 1
            return ("wait",)
        if action == "drop_stale":
            return ("stale",)
        if action == "install_settle":
            entry.owner = None
            entry.sharers = set()
            return ("settle",)
        if action == "remove_sharer":
            entry.sharers.discard(detail["src"])
            return ("removed",)
        raise FirmwareError(f"unknown directory action {action!r}")

    # -- firmware-facing events --------------------------------------------

    def request(self, line: int, want_rw: bool, requester: int) -> Tuple:
        """RREQ/WREQ (or the home's own miss) arriving at the home."""
        event = P.EV_WRITE if want_rw else P.EV_READ
        return self._apply(line, event, requester=requester,
                           want_rw=want_rw)

    def ack(self, line: int, src: int) -> Tuple:
        """One INVACK; raises on an ack nobody is waiting for."""
        entry = self.entry(line)
        if entry.state != P.BUSY or entry.pending is None \
                or entry.pending_acks <= 0:
            raise FirmwareError(
                f"home {self.node_id}: unexpected INVACK for line {line}")
        return self._apply(line, P.EV_ACK, src=src)

    def wbdata(self, line: int, src: int) -> Tuple:
        """Recalled data returned by the (former) owner."""
        return self._apply(line, P.EV_WBDATA, src=src)

    def evict_clean(self, line: int, src: int) -> Tuple:
        """A sharer silently dropped its clean copy."""
        return self._apply(line, P.EV_EVICT, src=src)

    def evict_dirty(self, line: int, src: int) -> Tuple:
        """The owner evicted; its data re-validates the home frame."""
        return self._apply(line, P.EV_EVICT_DIRTY, src=src)

    def pop_waiter(self, line: int) -> Optional[Tuple[bool, int]]:
        """Next queued request, once the line has settled (else None)."""
        entry = self.entry(line)
        if entry.state == P.BUSY or not entry.waiters:
            return None
        waiter = entry.waiters.pop(0)
        san = self.sanitizer
        if san is not None:
            san.on_waiter_pop(self, line)
        return waiter
