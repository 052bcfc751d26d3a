"""The partial-order-reduction conflict relation.

Two same-timestamp scheduled items need both orders explored only if
they *conflict* — if running them in either order can change what the
simulation does next.  Independent items commute: executing A then B at
the same instant is indistinguishable from B then A, so exploring one
order covers both (the Mazurkiewicz-trace argument behind partial-order
reduction).

The engine's heap entries are opaque ``(time, seq, kind, target, arg)``
tuples, so conflict detection is a *heuristic classification* of each
item's target object:

========== ===========================================================
key tag    derived from
========== ===========================================================
``store``  a :class:`~repro.sim.store.Store` put/get event — the
           store's name (``put:X`` and ``get:X`` share the key ``X``,
           so producers and consumers of one queue conflict)
``proc``   a process wake-up (timeout or sleep expiry, first step,
           interrupt) — the sorted names of the processes the item
           resumes
``ev``     any other named event — the event name
``cells``  a closure (link delivery, credit return...) — the sorted
           names of every named object captured in its cells, so two
           deliveries on one link conflict and deliveries on disjoint
           links commute
========== ===========================================================

Unclassifiable items return ``None`` and conservatively conflict with
everything.  The relation over-approximates (two wake-ups of processes
that never touch shared state still "conflict" when the processes share
a name), which costs exploration breadth but never hides an ordering —
the safe direction for a testing tool.
"""

from __future__ import annotations

import re
from typing import Any, Dict, FrozenSet, Optional, Tuple
from zlib import crc32

#: a classification: (tag, detail) — or None for "conflicts with all".
ConflictKey = Optional[Tuple[str, Any]]


def _callback_owners(callbacks: Any) -> Optional[Tuple[str, ...]]:
    """Names of the objects a callback list resumes (None if opaque)."""
    if not callbacks:
        return ()
    names = []
    for cb in callbacks:
        owner = getattr(cb, "__self__", None)
        name = getattr(owner, "name", None)
        if not isinstance(name, str):
            return None
        names.append(name)
    return tuple(sorted(names))


def _event_key(ev: Any, callbacks: Any = None) -> ConflictKey:
    name = getattr(ev, "name", None)
    if not isinstance(name, str) or not name:
        return None
    if name.startswith("put:") or name.startswith("get:"):
        return ("store", name.split(":", 1)[1])
    if name in ("timeout", "all_of", "any_of", "process"):
        # anonymous plumbing event: classify by who it wakes
        if callbacks is None:
            callbacks = getattr(ev, "_callbacks", None)
        owners = _callback_owners(callbacks)
        if owners is None:
            return None
        if not owners:
            return ("noop", "")
        return ("proc", owners)
    return ("ev", name)


def _call_key(fn: Any) -> ConflictKey:
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", None)
        if isinstance(name, str):
            tag = "proc" if hasattr(owner, "_gen") else "obj"
            detail = (name,) if tag == "proc" else name
            return (tag, detail)
        return None
    cells = getattr(fn, "__closure__", None)
    if cells:
        names = []
        for cell in cells:
            try:
                captured = cell.cell_contents
            except ValueError:  # pragma: no cover - empty cell
                continue
            name = getattr(captured, "name", None)
            if isinstance(name, str) and name:
                names.append(name)
        if names:
            return ("cells", tuple(sorted(names)))
    return None


def conflict_key(item: Tuple) -> ConflictKey:
    """Classify one heap entry ``(time, seq, kind, target, arg)``."""
    _time, _seq, kind, target, arg = item
    if kind == 2:  # KIND_CALLBACKS: arg is the already-triggered event
        return _event_key(arg, callbacks=target)
    if kind == 1:  # KIND_SUCCEED: target is the event about to trigger
        return _event_key(target)
    if kind >= 3:  # KIND_SLEEP/KIND_WAKE: target is the sleeping process,
        # keyed as the equivalent Timeout's callback owner would be
        return ("proc", (target.name,))
    return _call_key(target)


#: name prefixes that are per-node hardware: every ``ap0``/``sp0``/
#: ``ctrl0``/... object hangs off node 0's bus, SRAM banks, and NIU
#: queues, so two same-instant items on one node contend and must be
#: order-explored; same-instant items on *different* nodes can only
#: interact through a link flight that lands strictly later.
_NODE_PREFIXES = frozenset({
    "ap", "sp", "ctrl", "sbiu", "abiu", "niu", "node", "n", "fw",
})

_TOKEN_RE = re.compile(r"([a-z]+)(\d+)")

#: detail-string -> resource tokens (memoized; details recur heavily).
_token_cache: Dict[str, FrozenSet[Tuple[str, int]]] = {}


def _resource_tokens(key: Tuple[str, Any]) -> FrozenSet[Tuple[str, int]]:
    """The shared-hardware footprint a key's names imply.

    Node-scoped prefixes collapse to ``("node", k)`` so ``ap0.writer``
    and ``ctrl0.cmdproc0`` land on the same token; other indexed names
    (switches, external queues) keep their own prefix.  An empty set
    means the names carry no placement information.
    """
    detail = key[1]
    names = detail if isinstance(detail, tuple) else (str(detail),)
    tokens = set()
    for name in names:
        cached = _token_cache.get(name)
        if cached is None:
            found = set()
            for prefix, num in _TOKEN_RE.findall(name):
                if prefix in _NODE_PREFIXES:
                    found.add(("node", int(num)))
                else:
                    found.add((prefix, int(num)))
            cached = _token_cache[name] = frozenset(found)
        tokens |= cached
    return frozenset(tokens)


def keys_conflict(a: ConflictKey, b: ConflictKey) -> bool:
    """Whether two classifications must be order-explored."""
    # a no-op (triggered event with no callbacks) executes nothing, so
    # it commutes with everything — even unclassifiable items
    if (a is not None and a[0] == "noop") or (b is not None and b[0] == "noop"):
        return False
    if a is None or b is None:
        return True
    if a == b:
        return True
    ta, tb = _resource_tokens(a), _resource_tokens(b)
    if not ta or not tb:
        # no placement information: assume shared state (conservative)
        return True
    return bool(ta & tb)


def key_token(key: ConflictKey) -> str:
    """A stable, JSON/hash-friendly rendering of a conflict key."""
    if key is None:
        return "?"
    tag, detail = key
    if isinstance(detail, tuple):
        detail = ",".join(detail)
    return f"{tag}:{detail}"


def stable_hash(obj: Any) -> int:
    """Process- and run-independent hash (CRC32 of the repr).

    ``hash()`` is salted per interpreter for strings; exploration state
    hashes must be reproducible so that two runs of the explorer prune
    identically."""
    return crc32(repr(obj).encode("utf-8"))
