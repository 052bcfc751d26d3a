"""The MSI directory protocol definition: states, events, tables.

Everything here is *data*.  The home-node directory controller
(:mod:`repro.coherence.directory`) executes these tables; the coherence
sanitizer (:mod:`repro.analysis.sanitize`) re-checks every observed
transition against the very same tables with an independently mirrored
owner/ack ledger; DESIGN.md renders them as documentation.

Three state spaces cooperate:

* **cache-line states** (``MSI_*``) — the 4-bit clsSRAM contents every
  node holds per line.  INVALID/PENDING/RO/RW map onto classic MSI as
  I / (transient) / S / M.
* **directory states** — what the line's *home* believes:
  ``HOME_VALID`` (home frame is the memory copy, ``sharers`` may read),
  ``EXCLUSIVE`` (one remote owner holds the only valid copy), ``BUSY``
  (an invalidation or recall is in flight; new requests queue).
* **L2 snoop reactions** — the bus-side MSI component: how the aP's
  snooping write-back cache reacts to foreign bus transactions.

Directory transitions are guarded rules: for a ``(state, event)`` pair
the first rule whose guard holds fires; a pair with no matching rule is
a protocol violation (the controller raises, sanitized or not).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from repro.bus.ops import BusOpType

# ----------------------------------------------------------------------
# cache-line (clsSRAM) states
# ----------------------------------------------------------------------

#: canonical S-COMA line states (values are the 4-bit clsSRAM contents).
MSI_INVALID = 0  #: line not present locally — fetch required
MSI_PENDING = 1  #: fetch/upgrade in flight — retry without re-notifying
MSI_RO = 2  #: readable (shared) copy present
MSI_RW = 3  #: writable (owned/modified) copy present

#: the four states the default protocol uses; other 4-bit values belong
#: to experimental protocols and are outside these tables.
MSI_STATES: FrozenSet[int] = frozenset(
    {MSI_INVALID, MSI_PENDING, MSI_RO, MSI_RW})


# ----------------------------------------------------------------------
# directory states and events
# ----------------------------------------------------------------------

HOME_VALID = "home"  #: home frame is the memory copy; ``sharers`` may read
EXCLUSIVE = "excl"  #: one remote owner holds the only valid (RW) copy
BUSY = "busy"  #: invalidation or recall in flight

DIR_STATES: Tuple[str, ...] = (HOME_VALID, EXCLUSIVE, BUSY)


#: directory events (what arrives at, or completes inside, the home).
EV_READ = "read"  #: RREQ — or the home's own read miss
EV_WRITE = "write"  #: WREQ — or the home's own write miss/upgrade
EV_ACK = "ack"  #: INVACK from one invalidated sharer
EV_WBDATA = "wbdata"  #: recalled owner returned the line (WBREQ reply)
EV_EVICT = "evict"  #: a sharer dropped its clean copy (EVICT notice)
EV_EVICT_DIRTY = "evict_dirty"  #: the owner evicted; data came home


class DirRule(NamedTuple):
    """One guarded transition: first matching rule per (state, event)
    fires.  ``guard=None`` always matches (the catch-all last rule)."""

    guard: Optional[str]
    action: str
    next_state: str


#: the home-node directory transition table.
#:
#: Guards (evaluated against the entry + the event's requester/src):
#:
#: ====================  ==================================================
#: guard                 true when
#: ====================  ==================================================
#: ``other_sharers``     a sharer other than the requester holds the line
#: ``remote_requester``  the (pending) requester is not the home itself
#: ``requester_is_owner`` the requester already owns the line (duplicate)
#: ``src_is_owner``      the message sender is the recorded owner
#: ``stale_writeback``   returned data is NOT from the recorded owner —
#:                       a late echo of an already-settled recall/evict
#: ``more_acks``         invalidation acks are still outstanding after
#:                       this one
#: ``pending_read``      the request being completed wants read access
#: ====================  ==================================================
#:
#: Actions are executed by :class:`repro.coherence.directory.
#: DirectoryController` (bookkeeping) and the sP firmware (data movement
#: + messages); the sanitizer mirrors their owner/ack effects.
DIR_TABLE: Dict[Tuple[str, str], Tuple[DirRule, ...]] = {
    # -- requests at a settled home -----------------------------------
    (HOME_VALID, EV_READ): (
        DirRule(None, "grant_ro", HOME_VALID),
    ),
    (HOME_VALID, EV_WRITE): (
        DirRule("other_sharers", "start_invalidate", BUSY),
        DirRule("remote_requester", "grant_rw_remote", EXCLUSIVE),
        DirRule(None, "grant_rw_local", HOME_VALID),
    ),
    (EXCLUSIVE, EV_READ): (
        DirRule("requester_is_owner", "drop_duplicate", EXCLUSIVE),
        DirRule(None, "recall_ro", BUSY),
    ),
    (EXCLUSIVE, EV_WRITE): (
        DirRule("requester_is_owner", "drop_duplicate", EXCLUSIVE),
        DirRule(None, "recall_inv", BUSY),
    ),
    # -- requests hitting a line mid-transition queue -----------------
    (BUSY, EV_READ): (
        DirRule(None, "queue", BUSY),
    ),
    (BUSY, EV_WRITE): (
        DirRule(None, "queue", BUSY),
    ),
    # -- invalidation acks: the last one releases the write grant -----
    (BUSY, EV_ACK): (
        DirRule("more_acks", "count_ack", BUSY),
        DirRule("remote_requester", "grant_rw_remote", EXCLUSIVE),
        DirRule(None, "grant_rw_local", HOME_VALID),
    ),
    # -- recalled data returning (WBREQ reply) ------------------------
    (BUSY, EV_WBDATA): (
        DirRule("stale_writeback", "drop_stale", BUSY),
        DirRule("pending_read", "install_grant_ro", HOME_VALID),
        DirRule("remote_requester", "install_grant_rw_remote", EXCLUSIVE),
        DirRule(None, "install_grant_rw_local", HOME_VALID),
    ),
    (HOME_VALID, EV_WBDATA): (
        DirRule(None, "drop_stale", HOME_VALID),
    ),
    (EXCLUSIVE, EV_WBDATA): (
        DirRule(None, "drop_stale", EXCLUSIVE),
    ),
    # -- voluntary evictions ------------------------------------------
    (HOME_VALID, EV_EVICT): (
        DirRule(None, "remove_sharer", HOME_VALID),
    ),
    (EXCLUSIVE, EV_EVICT): (
        DirRule(None, "remove_sharer", EXCLUSIVE),
    ),
    (BUSY, EV_EVICT): (
        DirRule(None, "remove_sharer", BUSY),
    ),
    # A dirty eviction from the current owner settles the line; if a
    # recall was already in flight the eviction IS the writeback and
    # completes the pending request.  From anybody else it is a stale
    # echo of a previous ownership epoch and must not touch the frame.
    (EXCLUSIVE, EV_EVICT_DIRTY): (
        DirRule("src_is_owner", "install_settle", HOME_VALID),
        DirRule(None, "drop_stale", EXCLUSIVE),
    ),
    (BUSY, EV_EVICT_DIRTY): (
        DirRule("stale_writeback", "drop_stale", BUSY),
        DirRule("pending_read", "settle_grant_ro", HOME_VALID),
        DirRule("remote_requester", "install_grant_rw_remote", EXCLUSIVE),
        DirRule(None, "install_grant_rw_local", HOME_VALID),
    ),
    (HOME_VALID, EV_EVICT_DIRTY): (
        DirRule(None, "drop_stale", HOME_VALID),
    ),
}

#: actions that hand the line to a requester (the sanitizer enforces
#: no-stale-re-grant and ack conservation across exactly these).
GRANT_ACTIONS: FrozenSet[str] = frozenset({
    "grant_ro", "grant_rw_local", "grant_rw_remote",
    "install_grant_ro", "settle_grant_ro", "install_grant_rw_local",
    "install_grant_rw_remote",
})

#: grant actions that make a *remote* requester the exclusive owner.
OWNER_GRANT_ACTIONS: FrozenSet[str] = frozenset({
    "grant_rw_remote", "install_grant_rw_remote",
})

#: actions that install returned data into the home frame.
INSTALL_ACTIONS: FrozenSet[str] = frozenset({
    "install_grant_ro", "settle_grant_ro", "install_grant_rw_local",
    "install_grant_rw_remote", "install_settle",
})


# ----------------------------------------------------------------------
# cache-side (clsSRAM) transition legality, by cause
# ----------------------------------------------------------------------

#: firmware state writes carry a *cause*; each cause has a legal
#: (old-states, new-states) envelope.  ``None``-cause writes (machine
#: setup, block-transfer arming, experimental protocols) are outside
#: the table and only subject to the data-carrying-fill rule.
CACHE_TABLE: Dict[str, Tuple[FrozenSet[int], FrozenSet[int]]] = {
    # the home grants itself access after a local miss/upgrade (RW->RO
    # covers a read grant racing a just-settled dirty eviction)
    "grant": (frozenset({MSI_INVALID, MSI_PENDING, MSI_RO, MSI_RW}),
              frozenset({MSI_RO, MSI_RW})),
    # the home yields its copy to a new remote exclusive owner
    "yield_owner": (frozenset({MSI_INVALID, MSI_PENDING, MSI_RO, MSI_RW}),
                    frozenset({MSI_INVALID})),
    # the home keeps a readable copy while a remote reader joins
    "downgrade": (frozenset({MSI_RW}), frozenset({MSI_RO})),
    # a sharer drops its copy on INV (PENDING: an upgrade miss crossed
    # the invalidation; INVALID: eviction crossed it)
    "inv": (frozenset({MSI_INVALID, MSI_PENDING, MSI_RO}),
            frozenset({MSI_INVALID})),
    # the recalled owner answers WBREQ (RO when downgrading)
    "relinquish": (frozenset({MSI_RW}),
                   frozenset({MSI_RO, MSI_INVALID})),
    # the home re-validates its frame from recalled data
    "wb_install": (frozenset({MSI_INVALID, MSI_PENDING}),
                   frozenset({MSI_RO})),
    # a node voluntarily drops its cached copy
    "evict": (frozenset({MSI_RO, MSI_RW}), frozenset({MSI_INVALID})),
    # the home re-owns the line after the owner's dirty eviction
    "settle": (frozenset({MSI_INVALID, MSI_PENDING}),
               frozenset({MSI_RW})),
}


def cache_transition_legal(cause: str, old: int, new: int) -> bool:
    """Is ``old -> new`` inside the cause's legal envelope?

    Raises ``KeyError`` for an unknown cause — a firmware bug, not a
    protocol violation.  Off-protocol 4-bit values are always legal
    (experimental protocols own them).
    """
    if old not in MSI_STATES or new not in MSI_STATES:
        return True
    legal_old, legal_new = CACHE_TABLE[cause]
    return old in legal_old and new in legal_new


# ----------------------------------------------------------------------
# L2 snoop reactions (the bus-side MSI component)
# ----------------------------------------------------------------------


class SnoopReaction(NamedTuple):
    """How a snooping L2 reacts to one foreign (state, bus-op) pair.

    ``push`` reflects a Modified line into DRAM before the foreign data
    tenure (the model's intervention approximation); ``next_state`` is
    the MSI letter to move to (``None`` = keep).
    """

    push: bool
    next_state: Optional[str]


_READS = (BusOpType.READ, BusOpType.READ_LINE)
_FOREIGN_WRITES = (BusOpType.WRITE, BusOpType.WRITE_LINE)
_TAKEOVERS = (BusOpType.RWITM, BusOpType.FLUSH)

#: (MSI letter, bus op) -> reaction.  Pairs not listed take no action.
L2_SNOOP_TABLE: Dict[Tuple[str, BusOpType], SnoopReaction] = {}
for _op in _READS:
    L2_SNOOP_TABLE[("M", _op)] = SnoopReaction(push=True, next_state="S")
for _op in _TAKEOVERS + _FOREIGN_WRITES:
    L2_SNOOP_TABLE[("M", _op)] = SnoopReaction(push=True, next_state="I")
# KILL announces a foreign upgrade: our copy dies, but the upgrader owns
# current data, so a Modified copy here would be a protocol error — no
# push (matching hardware, which has nothing to push on a kill).
L2_SNOOP_TABLE[("M", BusOpType.KILL)] = SnoopReaction(push=False,
                                                      next_state="I")
for _op in _TAKEOVERS + _FOREIGN_WRITES + (BusOpType.KILL,):
    L2_SNOOP_TABLE[("S", _op)] = SnoopReaction(push=False, next_state="I")


def l2_snoop_reaction(state: str, op: BusOpType) -> Optional[SnoopReaction]:
    """Reaction of a snooping MSI L2 in ``state`` to foreign ``op``
    (``None`` = no action)."""
    return L2_SNOOP_TABLE.get((state, op))
