"""Runtime invariant checkers ("sanitizers") for the simulated machine.

Where :mod:`repro.analysis.lint` checks the *source*, this module checks
the *running machine*: pluggable engine checkers that watch protocol
state as the simulation executes and raise
:class:`~repro.common.errors.SanitizerError` the moment an invariant
breaks — at the offending transition, not at a corrupted result three
experiments later.

=========== ==========================================================
name        invariant
=========== ==========================================================
credit      per-link, per-priority flow-control credits are conserved:
            never returned twice, and every credit drained from the
            pool is accounted for (in flight or buffered) whenever the
            event queue fully drains — including the fault-injection
            drop path, which must hand its credit back
queue       no SRAM write lands on an unconsumed hardware-queue entry
            (producer overrun corrupting live messages), and reliable
            go-back-N flows keep their windows legal: at most
            ``window`` unacked segments with consecutive sequence
            numbers, and no received DATA sequence beyond
            ``expected + window``
coherence   every observed MSI transition is machine-checked against
            the protocol tables in :mod:`repro.coherence.protocol`:
            directory decisions must match a DIR_TABLE rule replayed
            over an independent mirror (single owner, no stale
            re-grant, invalidation-ack conservation, no BUSY entries
            or queued waiters left at drain); cause-tagged clsSRAM
            writes must sit inside their CACHE_TABLE envelope;
            hardware (the aBIU table walk) may only mark lines
            PENDING from INVALID or RO; and no data-carrying fill
            *downgrades* an RW line — the owner holds the only
            up-to-date copy, so such a fill is a re-granted duplicate
            request overwriting modified data with stale home data
deadlock    when the event queue drains while non-daemon processes are
            still blocked, fail with a wait-for graph instead of
            silently returning
combine     switch-resident combining decombines *exactly once*: every
            flushed combining slot is answered by exactly one reply
            per recorded contribution (no duplicates, no leftovers),
            no reply arrives for a token nobody is waiting on, and no
            combining stage holds open slots or unreturned decombine
            records when the event queue drains
=========== ==========================================================

Enable via ``MachineConfig(sanitize=("credit", "queue"))``, the string
``"all"``, or the ``REPRO_SANITIZE`` environment variable (same syntax;
merged with the config).  An unsanitized machine installs nothing: the
hooks this module attaches to are ``None``-guarded attributes, so the
off path costs one attribute test on a handful of rare operations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.common.errors import ConfigError, DeadlockError, SanitizerError
from repro.mem.backing import ByteBacking
from repro.niu.clssram import CLS_INVALID, CLS_PENDING, CLS_RO, CLS_RW
from repro.sim.store import Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager
    from repro.firmware.reliable import _Flow
    from repro.net.link import Link
    from repro.niu.clssram import ClsSram
    from repro.niu.queues import QueueState
    from repro.niu.sp import ServiceProcessor
    from repro.sim.process import Process

#: installable checkers, in install order.
SANITIZER_NAMES: Tuple[str, ...] = ("credit", "queue", "coherence",
                                    "deadlock", "combine")


def _parse(spec: Union[str, Iterable[str], None]) -> Tuple[str, ...]:
    if not spec:
        return ()
    if isinstance(spec, str):
        spec = spec.split(",")
    chosen = set()
    for raw in spec:
        name = raw.strip().lower()
        if not name:
            continue
        if name == "all":
            chosen.update(SANITIZER_NAMES)
        elif name in SANITIZER_NAMES:
            chosen.add(name)
        else:
            raise ConfigError(
                f"unknown sanitizer {name!r}; choose from "
                f"{', '.join(SANITIZER_NAMES)} or 'all'"
            )
    return tuple(n for n in SANITIZER_NAMES if n in chosen)


def resolve_sanitizers(
    spec: Union[str, Iterable[str], None] = (),
    env: Optional[str] = None,
) -> Tuple[str, ...]:
    """Union of the config spec and the ``REPRO_SANITIZE`` environment
    variable, normalized to canonical order.  ``env`` overrides the real
    environment (testing)."""
    if env is None:
        import os

        env = os.environ.get("REPRO_SANITIZE", "")
    chosen = set(_parse(spec)) | set(_parse(env))
    return tuple(n for n in SANITIZER_NAMES if n in chosen)


# ----------------------------------------------------------------------
# credit conservation
# ----------------------------------------------------------------------


class _CreditLane:
    """Conservation ledger for one (link, priority) flow-control lane."""

    __slots__ = ("name", "capacity", "buffer_store", "held", "acquires", "returns")

    def __init__(self, name: str, capacity: int, buffer_store: Store) -> None:
        self.name = name
        self.capacity = capacity
        self.buffer_store = buffer_store
        #: credits currently out of the pool (in flight or buffered).
        self.held = 0
        self.acquires = 0
        self.returns = 0

    def on_acquire(self) -> None:
        self.held += 1
        self.acquires += 1

    def on_return(self) -> None:
        self.held -= 1
        self.returns += 1
        if self.held < 0:
            raise SanitizerError(
                f"credit double-return on lane {self.name}: more credits "
                f"returned ({self.returns}) than acquired ({self.acquires})"
            )

    def on_drain(self) -> None:
        # With the event queue fully drained nothing is in flight, so
        # every outstanding credit must correspond to a packet still
        # sitting unconsumed in the receive buffer.
        buffered = len(self.buffer_store)
        if self.held != buffered:
            raise SanitizerError(
                f"credit leak on lane {self.name}: {self.held} credit(s) "
                f"outstanding but {buffered} packet(s) buffered at drain "
                f"(capacity {self.capacity}, {self.acquires} acquired / "
                f"{self.returns} returned)"
            )


class _TapCreditStore(Store):
    """Credit :class:`Store` that notifies its lane on every movement."""

    __slots__ = ("_san_lane",)

    def _accept(self, item: Any) -> None:
        # A put that hands off directly to a blocked sender re-issues the
        # credit in the same step: return + acquire, net zero held.
        handoff = any(not ev.triggered for ev in self._getters)
        super()._accept(item)
        if not handoff:
            self._san_lane.on_return()

    def _pop(self) -> Any:
        item = super()._pop()
        self._san_lane.on_acquire()
        return item


class CreditSanitizer:
    """Per-link flow-control credit conservation."""

    name = "credit"

    def __init__(self, machine: "StarTVoyager") -> None:
        self.machine = machine
        self.lanes: List[_CreditLane] = []

    def install(self) -> None:
        network = self.machine.network
        if network is None:
            return
        for link in network.links:
            self._tap_link(link)

    def _tap_link(self, link: "Link") -> None:
        for priority, credits in enumerate(link._credits):
            lane = _CreditLane(
                f"{link.name}.p{priority}",
                credits.capacity,
                link._buffers[priority],
            )
            tap = _TapCreditStore(credits.engine, credits.capacity, credits.name)
            tap._items.extend(credits._items)
            tap._getters.extend(credits._getters)
            tap._putters.extend(credits._putters)
            tap.total_put = credits.total_put
            tap.total_got = credits.total_got
            tap.peak_depth = credits.peak_depth
            tap._san_lane = lane
            link._credits[priority] = tap
            self.lanes.append(lane)

    def on_drain(self) -> None:
        for lane in self.lanes:
            lane.on_drain()

    def reset(self) -> None:
        """Zero the activity counters; ``held`` is live machine state
        (credits still out of the pool) and must survive."""
        for lane in self.lanes:
            lane.acquires = 0
            lane.returns = 0

    def report(self) -> Dict[str, int]:
        return {
            "lanes": len(self.lanes),
            "acquires": sum(lane.acquires for lane in self.lanes),
            "returns": sum(lane.returns for lane in self.lanes),
        }


# ----------------------------------------------------------------------
# queue overwrites + reliable-protocol windows
# ----------------------------------------------------------------------


class _TapBacking(ByteBacking):
    """SRAM backing that routes every write past a bank guard first."""

    __slots__ = ("_san_guard",)

    def write(self, offset: int, data: bytes) -> None:
        self._san_guard.check(offset, len(data))
        super().write(offset, data)

    def write_parts(self, offset: int, parts: Iterable[bytes]) -> int:
        parts = tuple(parts)
        self._san_guard.check(offset, sum(len(p) for p in parts))
        return super().write_parts(offset, parts)

    def fill(self, offset: int, length: int, value: int = 0) -> None:
        self._san_guard.check(offset, length)
        super().fill(offset, length, value)


class _BankGuard:
    """Watches one SRAM bank for writes into unconsumed queue entries."""

    __slots__ = ("sanitizer", "ctrl", "bank")

    def __init__(self, sanitizer: "QueueSanitizer", ctrl: Any, bank: int) -> None:
        self.sanitizer = sanitizer
        self.ctrl = ctrl
        self.bank = bank

    def check(self, offset: int, length: int) -> None:
        if length <= 0:
            return
        self.sanitizer.writes_checked += 1
        for q in self.ctrl.tx_queues:
            if q.bank == self.bank:
                self._check_queue(q, offset, length)
        for q in self.ctrl.rx_queues:
            if q.bank == self.bank:
                self._check_queue(q, offset, length)

    def _check_queue(self, q: "QueueState", offset: int, length: int) -> None:
        consumer, producer = q.consumer, q.producer
        if consumer == producer:
            return
        end = offset + length
        span_base = q.base
        span_end = q.base + q.depth * q.entry_bytes
        if end <= span_base or offset >= span_end:
            return
        for entry in range(consumer, producer):
            slot = q.slot_offset(entry)
            if offset < slot + q.entry_bytes and end > slot:
                raise SanitizerError(
                    f"{self.ctrl.name}: SRAM write [{offset:#x}, {end:#x}) "
                    f"overwrites unconsumed entry {entry} of "
                    f"{q.kind.value}{q.index} (slot [{slot:#x}, "
                    f"{slot + q.entry_bytes:#x}), occupancy {q.occupancy})"
                )


class QueueSanitizer:
    """Unconsumed-slot overwrites and reliable-window legality."""

    name = "queue"

    def __init__(self, machine: "StarTVoyager") -> None:
        self.machine = machine
        self.writes_checked = 0
        self.rel_tx_checked = 0
        self.rel_rx_checked = 0

    def install(self) -> None:
        for node in self.machine.nodes:
            ctrl = node.ctrl
            for bank, sram in enumerate((ctrl.asram, ctrl.ssram)):
                guard = _BankGuard(self, ctrl, bank)
                sram.backing = self._tap(sram.backing, guard)
            node.sp.sanitizer = self

    @staticmethod
    def _tap(backing: ByteBacking, guard: _BankGuard) -> _TapBacking:
        # Shares the live mmap/memoryview: views handed out earlier
        # keep aliasing the same storage, only the write path changes.
        tap = _TapBacking.__new__(_TapBacking)
        tap.size = backing.size
        tap.name = backing.name
        tap._data = backing._data
        tap._mv = backing._mv
        tap._san_guard = guard
        return tap

    # -- reliable-protocol hooks (called from firmware/reliable.py) --------

    def on_rel_tx(self, sp: "ServiceProcessor", flow: "_Flow") -> None:
        """After a segment enters the window: bounded and consecutive."""
        from repro.firmware.reliable import SEQ_MOD

        self.rel_tx_checked += 1
        window = sp.ctrl.config.reliability.window
        pending = flow.pending
        if len(pending) > window:
            raise SanitizerError(
                f"{sp.name}: reliable flow to node {flow.dst} holds "
                f"{len(pending)} unacked segments (window {window})"
            )
        first = pending[0][0]
        for i, (seq, _q, _payload) in enumerate(pending):
            if seq != (first + i) % SEQ_MOD:
                raise SanitizerError(
                    f"{sp.name}: reliable flow to node {flow.dst} window "
                    f"is not consecutive: entry {i} has seq {seq}, "
                    f"expected {(first + i) % SEQ_MOD}"
                )

    def on_rel_rx(self, sp: "ServiceProcessor", src: int, seq: int,
                  expected: int) -> None:
        """A DATA arrival must sit at or behind ``expected + window``."""
        from repro.firmware.reliable import SEQ_MOD, seq_lt

        self.rel_rx_checked += 1
        window = sp.ctrl.config.reliability.window
        horizon = (expected + window) % SEQ_MOD
        if seq_lt(horizon, seq):
            raise SanitizerError(
                f"{sp.name}: reliable DATA from node {src} carries seq "
                f"{seq}, beyond the legal window [{expected}, {horizon}] "
                f"— sender violated go-back-N"
            )

    def on_drain(self) -> None:
        pass

    def reset(self) -> None:
        self.writes_checked = 0
        self.rel_tx_checked = 0
        self.rel_rx_checked = 0

    def report(self) -> Dict[str, int]:
        return {
            "writes_checked": self.writes_checked,
            "rel_tx_checked": self.rel_tx_checked,
            "rel_rx_checked": self.rel_rx_checked,
        }


# ----------------------------------------------------------------------
# MSI coherence legality (clsSRAM writes + directory decisions)
# ----------------------------------------------------------------------

#: the four S-COMA states the default protocol uses; transitions among
#: other 4-bit values belong to experimental protocols and are ignored.
_SCOMA_STATES = frozenset({CLS_INVALID, CLS_PENDING, CLS_RO, CLS_RW})

#: hardware (aBIU table walk) may only mark a fetch/upgrade in flight.
_HW_LEGAL = frozenset({
    (CLS_INVALID, CLS_PENDING),  # read/write miss -> fetch pending
    (CLS_RO, CLS_PENDING),       # write upgrade -> upgrade pending
})

#: data-carrying fills (a grant or push writing data into the frame as
#: it sets the state) must never *downgrade* an RW line.  An RW line
#: holds the only up-to-date copy; depositing data while taking write
#: permission away is the stale-grant race the home firmware's
#: duplicate-request drop exists to prevent — home data silently
#: overwriting the owner's modifications.  RW -> RW fills stay legal:
#: Approach-4/5 block transfer streams 80-byte chunks over 32-byte
#: lines, so a straddling chunk re-fills a line the previous chunk just
#: flipped RW.  Untagged (cause-less) data-free state writes are
#: outside the protocol tables (machine setup, block-transfer arming,
#: experimental protocols); cause-tagged writes are checked against
#: :data:`repro.coherence.protocol.CACHE_TABLE`.


def _state_name(state: int) -> str:
    return {CLS_INVALID: "INVALID", CLS_PENDING: "PENDING",
            CLS_RO: "RO", CLS_RW: "RW"}.get(state, f"custom({state})")


class _DirMirror:
    """Independently tracked home-side truth for one (home, line)."""

    __slots__ = ("state", "owner", "expected_acks", "waiters")

    def __init__(self) -> None:
        from repro.coherence import protocol as cp

        self.state: str = cp.HOME_VALID
        self.owner = None
        self.expected_acks = 0
        self.waiters = 0


class CoherenceSanitizer:
    """Machine-checks every observed MSI transition against the tables.

    Two vantage points, one protocol definition
    (:mod:`repro.coherence.protocol`):

    * **cache side** — every clsSRAM state write (hardware table walk or
      firmware command) must be a legal transition; cause-tagged writes
      must additionally sit inside their ``CACHE_TABLE`` envelope.
    * **directory side** — every decision a
      :class:`~repro.coherence.directory.DirectoryController` takes is
      replayed against ``DIR_TABLE`` over an *independent mirror* of
      state/owner/ack/waiter bookkeeping, enforcing: the fired
      (action, next-state) exists for the observed (state, event); at
      most one owner at a time, and ownership only moves through a
      relinquishing event from the old owner; a line is never re-granted
      to the node the mirror still records as owner (stale duplicate);
      invalidation acks are conserved (a write grant releases only after
      exactly the acks the invalidation round opened); and at drain no
      line is BUSY, owes acks, or holds queued waiters.
    """

    name = "coherence"

    def __init__(self, machine: "StarTVoyager") -> None:
        self.machine = machine
        self.hw_checked = 0
        self.fw_checked = 0
        self.cause_checked = 0
        self.dir_checked = 0
        #: (home node id, line) -> independent mirror.
        self.mirrors: Dict[Tuple[int, int], _DirMirror] = {}

    def install(self) -> None:
        for node in self.machine.nodes:
            cls = node.ctrl.cls
            if cls is not None:
                cls.sanitizer = self
            node.sp.state["scoma"].dir.sanitizer = self

    # -- cache side --------------------------------------------------------

    def on_hw_transition(self, cls: "ClsSram", line: int, old: int,
                         new: int, op: Any) -> None:
        self.hw_checked += 1
        if old == new:
            return
        if old not in _SCOMA_STATES or new not in _SCOMA_STATES:
            return
        if (old, new) not in _HW_LEGAL:
            raise SanitizerError(
                f"illegal clsSRAM hardware transition on line {line} "
                f"(addr {cls.addr_of(line):#x}): {_state_name(old)} -> "
                f"{_state_name(new)} on {op} — the aBIU may only mark "
                f"INVALID/RO lines PENDING"
            )

    def on_fw_transition(self, cls: "ClsSram", line: int, old: int,
                         new: int, fill: bool = False,
                         cause: Optional[str] = None) -> None:
        from repro.coherence.protocol import cache_transition_legal

        self.fw_checked += 1
        if old not in _SCOMA_STATES or new not in _SCOMA_STATES:
            return
        if fill and old == CLS_RW and new != CLS_RW:
            raise SanitizerError(
                f"illegal clsSRAM fill on line {line} "
                f"(addr {cls.addr_of(line):#x}): data-carrying "
                f"{_state_name(old)} -> {_state_name(new)} downgrade "
                f"would overwrite the owner's modified frame with stale "
                f"home data (re-granted duplicate request?)"
            )
        if cause is None:
            return
        self.cause_checked += 1
        try:
            legal = cache_transition_legal(cause, old, new)
        except KeyError:
            raise SanitizerError(
                f"clsSRAM write on line {line} carries unknown protocol "
                f"cause {cause!r} (not a CACHE_TABLE key — firmware bug)"
            ) from None
        if not legal:
            raise SanitizerError(
                f"illegal clsSRAM transition on line {line} "
                f"(addr {cls.addr_of(line):#x}): {_state_name(old)} -> "
                f"{_state_name(new)} is outside the {cause!r} envelope "
                f"of the protocol CACHE_TABLE"
            )

    # -- directory side ----------------------------------------------------

    def _mirror(self, ctl: Any, line: int) -> _DirMirror:
        key = (ctl.node_id, line)
        mirror = self.mirrors.get(key)
        if mirror is None:
            mirror = self.mirrors[key] = _DirMirror()
        return mirror

    def on_dir_transition(self, ctl: Any, line: int, old: str, new: str,
                          event: str, action: str, detail: Dict) -> None:
        """Replay one directory decision against the protocol table."""
        from repro.coherence import protocol as cp

        self.dir_checked += 1
        mirror = self._mirror(ctl, line)
        where = f"home {ctl.node_id}, line {line}"
        if mirror.state != old:
            raise SanitizerError(
                f"directory mirror divergence ({where}): controller is in "
                f"{old.upper()} but the mirror says "
                f"{mirror.state.upper()}"
            )
        rules = cp.DIR_TABLE.get((old, event))
        if rules is None or (action, new) not in \
                {(r.action, r.next_state) for r in rules}:
            raise SanitizerError(
                f"off-table directory transition ({where}): "
                f"{old.upper()} --{event}/{action}--> "
                f"{new.upper()} matches no DIR_TABLE rule"
            )
        requester, src = detail["requester"], detail["src"]
        if action in cp.GRANT_ACTIONS:
            # single-owner: ownership may only move once the recorded
            # owner relinquished (its WBDATA / dirty eviction is `src`)
            if mirror.owner is not None and mirror.owner != src:
                raise SanitizerError(
                    f"single-owner violation ({where}): {action} to node "
                    f"{requester} while node {mirror.owner} still owns "
                    f"the line"
                )
            # no stale re-grant: the recorded owner's own duplicate
            # request must be dropped, never re-answered with home data
            if mirror.owner is not None and mirror.owner == requester \
                    and requester != src:
                raise SanitizerError(
                    f"stale re-grant ({where}): {action} re-answers "
                    f"owner {requester}'s duplicate request with home "
                    f"data"
                )
            if event == cp.EV_ACK:
                if mirror.expected_acks != 1:
                    raise SanitizerError(
                        f"ack-count conservation violated ({where}): "
                        f"write grant released with "
                        f"{mirror.expected_acks} invalidation ack(s) "
                        f"outstanding (expected exactly 1 remaining)"
                    )
                mirror.expected_acks = 0
            elif mirror.expected_acks != 0:
                raise SanitizerError(
                    f"ack-count conservation violated ({where}): {action} "
                    f"on {event!r} with {mirror.expected_acks} "
                    f"invalidation ack(s) still outstanding"
                )
            mirror.owner = requester if action in cp.OWNER_GRANT_ACTIONS \
                else None
        elif action == "start_invalidate":
            if mirror.expected_acks != 0:
                raise SanitizerError(
                    f"ack-count conservation violated ({where}): new "
                    f"invalidation round opened with "
                    f"{mirror.expected_acks} ack(s) outstanding"
                )
            mirror.expected_acks = len(detail["targets"])
        elif action == "count_ack":
            mirror.expected_acks -= 1
            if mirror.expected_acks < 1:
                raise SanitizerError(
                    f"ack-count conservation violated ({where}): "
                    f"count_ack left {mirror.expected_acks} ack(s) — the "
                    f"final ack must release the grant instead"
                )
        elif action == "install_settle":
            if mirror.owner is not None and mirror.owner != src:
                raise SanitizerError(
                    f"single-owner violation ({where}): dirty eviction "
                    f"from node {src} settled the line node "
                    f"{mirror.owner} owns"
                )
            mirror.owner = None
        elif action == "queue":
            mirror.waiters += 1
        mirror.state = new

    def on_waiter_pop(self, ctl: Any, line: int) -> None:
        mirror = self._mirror(ctl, line)
        mirror.waiters -= 1
        if mirror.waiters < 0:
            raise SanitizerError(
                f"directory waiter underflow (home {ctl.node_id}, line "
                f"{line}): more queued requests replayed than were queued"
            )

    def on_drain(self) -> None:
        from repro.coherence import protocol as cp

        for (home, line), mirror in sorted(self.mirrors.items()):
            if mirror.state == cp.BUSY or mirror.expected_acks \
                    or mirror.waiters:
                raise SanitizerError(
                    f"directory not quiescent at drain (home {home}, "
                    f"line {line}): state "
                    f"{mirror.state.upper()}, "
                    f"{mirror.expected_acks} ack(s) outstanding, "
                    f"{mirror.waiters} waiter(s) queued"
                )

    def reset(self) -> None:
        """Zero the activity counters; the directory mirrors track live
        protocol state (they must keep pace with the machine) and stay."""
        self.hw_checked = 0
        self.fw_checked = 0
        self.cause_checked = 0
        self.dir_checked = 0

    def report(self) -> Dict[str, int]:
        return {"hw_checked": self.hw_checked, "fw_checked": self.fw_checked,
                "cause_checked": self.cause_checked,
                "dir_checked": self.dir_checked}


# ----------------------------------------------------------------------
# deadlock watchdog
# ----------------------------------------------------------------------


class DeadlockWatchdog:
    """Wait-for-graph dump when the event queue drains with work stuck."""

    name = "deadlock"

    def __init__(self, machine: "StarTVoyager") -> None:
        self.machine = machine

    def install(self) -> None:
        engine = self.machine.engine
        if engine.process_registry is None:
            engine.process_registry = []
        engine.deadlock_dump = self.dump

    def _alive(self) -> List["Process"]:
        registry = self.machine.engine.process_registry
        if registry is None:
            return []
        alive = [p for p in registry if p.is_alive]
        registry[:] = alive  # prune finished processes as we go
        return alive

    def dump(self) -> str:
        """Render the wait-for graph of every live registered process."""
        lines = []
        for proc in self._alive():
            target = proc._waiting_on
            kind = "daemon " if proc.daemon else ""
            if target is None:
                waits = "(not waiting — never started or mid-step)"
            else:
                waits = f"-> {type(target).__name__} {target.name!r}"
            lines.append(f"  {kind}process {proc.name!r} {waits}")
        lines.extend(self._directory_edges())
        if not lines:
            return ""
        return "wait-for graph at drain:\n" + "\n".join(lines)

    def _directory_edges(self) -> List[str]:
        """Unsettled coherence transactions are wait-for edges too: a
        BUSY directory line means some requester is spinning on PENDING
        until the home's invalidation/recall round completes."""
        from repro.coherence.protocol import BUSY

        lines = []
        for node in self.machine.nodes:
            scoma = node.sp.state["scoma"]
            for line, entry in sorted(scoma.dir.directory.items()):
                if entry.state != BUSY and not entry.waiters:
                    continue
                want_rw, requester = entry.pending or (None, None)
                lines.append(
                    f"  directory home {node.node_id} line {line}: "
                    f"{entry.state.upper()}, pending "
                    f"{'write' if want_rw else 'read'} for node "
                    f"{requester}, {entry.pending_acks} ack(s) "
                    f"outstanding, {len(entry.waiters)} waiter(s) queued"
                )
        return lines

    def on_drain(self) -> None:
        blocked = [p for p in self._alive() if not p.daemon]
        if blocked:
            names = ", ".join(repr(p.name) for p in blocked[:8])
            raise DeadlockError(
                f"event queue drained with {len(blocked)} blocked "
                f"process(es): {names}\n{self.dump()}"
            )

    def reset(self) -> None:
        self._alive()  # prune finished processes from the registry

    def report(self) -> Dict[str, int]:
        return {"tracked": len(self._alive())}


# ----------------------------------------------------------------------
# combine sanitizer (decombine exactly once)
# ----------------------------------------------------------------------


class _CombineRecord:
    """One flushed combining slot awaiting its replies."""

    __slots__ = ("expected", "replied", "ports")

    def __init__(self, expected: int) -> None:
        self.expected = expected
        self.replied = 0
        self.ports: List[int] = []


class CombineSanitizer:
    """Decombine-exactly-once for switch-resident combining.

    The combining stages (:class:`repro.net.combine.CombineStage`) call
    in at every slot open, flush, reply and close; the checker keeps
    the mirror ledger and fails the moment a reply is duplicated,
    missing at close, or aimed at a token nobody recorded.  Stages pick
    the checker up through ``machine.sanitizers.checker("combine")``
    when :class:`repro.sync.api.SyncFabric` programs them.
    """

    name = "combine"

    def __init__(self, machine: "StarTVoyager") -> None:
        self.machine = machine
        #: open (un-flushed) combining slots: (switch, key).
        self.open: set = set()
        #: flushed slots awaiting replies: (switch, token) -> record.
        self.records: Dict[Tuple[str, Any], _CombineRecord] = {}
        self.opens = 0
        self.flushes = 0
        self.replies = 0
        self.closes = 0

    def install(self) -> None:
        """Nothing to hook at install time: combining stages are created
        when sync groups are planned, and find this checker then."""

    # -- stage-facing protocol ---------------------------------------------

    def note_open(self, switch: str, key: Any) -> None:
        self.opens += 1
        self.open.add((switch, key))

    def note_flush(self, switch: str, key: Any, token: Any,
                   expected: int) -> None:
        self.flushes += 1
        self.open.discard((switch, key))
        rkey = (switch, token)
        if rkey in self.records:
            raise SanitizerError(
                f"combine: {switch} reused live decombine token {token!r}"
            )
        self.records[rkey] = _CombineRecord(expected)

    def note_reply(self, switch: str, token: Any, port: int) -> None:
        self.replies += 1
        rec = self.records.get((switch, token))
        if rec is None:
            raise SanitizerError(
                f"combine: {switch} replied on port {port} for unknown "
                f"token {token!r}"
            )
        if port in rec.ports:
            raise SanitizerError(
                f"combine: {switch} decombined token {token!r} twice onto "
                f"port {port} (exactly-once violated)"
            )
        rec.ports.append(port)
        rec.replied += 1
        if rec.replied > rec.expected:
            raise SanitizerError(
                f"combine: {switch} emitted {rec.replied} replies for "
                f"token {token!r}, expected {rec.expected}"
            )

    def note_close(self, switch: str, token: Any, expected: int) -> None:
        self.closes += 1
        rec = self.records.pop((switch, token), None)
        if rec is None:
            raise SanitizerError(
                f"combine: {switch} closed unknown token {token!r}"
            )
        if rec.replied != expected:
            raise SanitizerError(
                f"combine: {switch} closed token {token!r} after "
                f"{rec.replied}/{expected} replies (contributors lost)"
            )

    def orphan(self, switch: str, tag: Any) -> None:
        raise SanitizerError(
            f"combine: {switch} received a reply nobody is waiting for: "
            f"{tag!r} (duplicate or stale decombine)"
        )

    # -- drain check -------------------------------------------------------

    def on_drain(self) -> None:
        left = len(self.open) + len(self.records)
        if left:
            sample = sorted(map(repr, self.open))[:4] \
                + sorted(map(repr, self.records))[:4]
            raise SanitizerError(
                f"combine: event queue drained with {left} combining "
                f"slot(s)/record(s) outstanding (wedged reduction tree?): "
                f"{sample}"
            )
        net = self.machine.network
        if net is not None:
            for sw in net.switches.values():
                stage = sw.combiner
                if stage is not None and stage.outstanding():
                    raise SanitizerError(
                        f"combine: {sw.name} drained with "
                        f"{stage.outstanding()} slot(s) outstanding"
                    )

    def reset(self) -> None:
        """Zero counters and drop the slot ledger.  A clean drain leaves
        ``open``/``records`` empty already; after an *aborted* run they
        may not be, and carrying them into the next run would charge it
        with the previous run's wreckage."""
        self.open.clear()
        self.records.clear()
        self.opens = 0
        self.flushes = 0
        self.replies = 0
        self.closes = 0

    def report(self) -> Dict[str, int]:
        return {"opens": self.opens, "flushes": self.flushes,
                "replies": self.replies, "closes": self.closes}


# ----------------------------------------------------------------------
# the layer
# ----------------------------------------------------------------------

_FACTORIES = {
    "credit": CreditSanitizer,
    "queue": QueueSanitizer,
    "coherence": CoherenceSanitizer,
    "deadlock": DeadlockWatchdog,
    "combine": CombineSanitizer,
}


class SanitizerLayer:
    """The machine's installed checkers (``machine.sanitizers``)."""

    def __init__(self, machine: "StarTVoyager",
                 names: Union[str, Iterable[str]]) -> None:
        self.machine = machine
        self.names = resolve_sanitizers(names, env="")
        self.checkers = [_FACTORIES[name](machine) for name in self.names]

    def install(self) -> None:
        for checker in self.checkers:
            checker.install()
        # The watchdog drains first: a stuck process is usually the root
        # cause behind any credit/queue imbalance seen at the same drain.
        order = sorted(
            self.checkers,
            key=lambda c: 0 if isinstance(c, DeadlockWatchdog) else 1,
        )
        if self.checkers:
            self.machine.engine.drain_hooks.append(
                lambda: [c.on_drain() for c in order]
            )

    def checker(self, name: str) -> Any:
        """The installed checker named ``name`` (raises when absent)."""
        for c in self.checkers:
            if c.name == name:
                return c
        raise ConfigError(f"sanitizer {name!r} is not installed")

    def report(self) -> Dict[str, Dict[str, int]]:
        """Per-checker activity counters (proof the checkers ran)."""
        return {c.name: c.report() for c in self.checkers}

    def reset(self) -> None:
        """Re-baseline every checker for an independent follow-up run.

        Activity counters drop to zero; ledgers that mirror *live*
        machine state (credits out of the pool, directory mirrors) are
        kept — they must stay in lockstep with the machine they watch.
        """
        for checker in self.checkers:
            checker.reset()

    def oracle_report(self) -> Dict[str, Dict[str, int]]:
        """The explorer's per-schedule oracle adapter: snapshot every
        checker's counters, then :meth:`reset` so the next schedule (or
        any follow-up run on this machine) reports independently."""
        report = self.report()
        self.reset()
        return report
