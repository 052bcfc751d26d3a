"""Lightweight event tracing: typed spans in one bounded buffer.

Every record is a :class:`SpanRecord` — a structured occurrence with a
start *and* an end time, a node id and a display track, produced
through :meth:`Tracer.span` / :meth:`Tracer.instant` (an instant is a
span whose start equals its end).  These are what the :mod:`repro.obs`
Perfetto exporter renders as per-node aP/sP/queue timelines.

Tracing is off by default — a simulator this size cannot afford
per-event record building on hot paths — and is enabled per category, so
a test can trace ``"niu"`` without paying for ``"net"``.  Hot paths must
keep the *wants-first* discipline::

    if tracer.active and tracer.wants("niu"):
        span = tracer.span("niu.tx", node=i, track=f"txq{q}")
        ...
        span.end(bytes=n)

``active`` is a plain attribute (no call) so the all-off case costs one
attribute load; with the category off, :meth:`Tracer.span` returns the
shared :data:`NULL_SPAN` singleton and allocates nothing.
"""

from __future__ import annotations

from collections import deque
from typing import (TYPE_CHECKING, Any, Deque, List, NamedTuple, Optional,
                    Set, Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine


class SpanRecord(NamedTuple):
    """One typed occurrence: an interval (or instant, when start == end).

    ``track`` names the timeline the record belongs to ("aP", "sP",
    "txq0", "net", ...); ``node`` scopes it to one node board (None for
    machine-wide records).  ``args`` is a tuple of (key, value) pairs —
    cheap to build, hashable, and JSON-friendly after ``dict(args)``.
    """

    start: float
    end: float
    kind: str
    source: str
    node: Optional[int]
    track: str
    args: Tuple[Tuple[str, Any], ...]


class Span:
    """An open interval; call :meth:`end` (or use ``with``) to record it."""

    __slots__ = ("_tracer", "kind", "source", "node", "track", "start",
                 "_args", "_closed")

    def __init__(self, tracer: "Tracer", kind: str, source: str,
                 node: Optional[int], track: str,
                 args: Tuple[Tuple[str, Any], ...]) -> None:
        self._tracer = tracer
        self.kind = kind
        self.source = source
        self.node = node
        self.track = track
        self.start = tracer.engine.now
        self._args = args
        self._closed = False

    def end(self, **extra: Any) -> None:
        """Close the span at the current time and record it."""
        if self._closed:
            return
        self._closed = True
        args = self._args + tuple(extra.items()) if extra else self._args
        tracer = self._tracer
        tracer._spans.append(SpanRecord(
            self.start, tracer.engine.now, self.kind, self.source,
            self.node, self.track, args,
        ))

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end()


class _NullSpan:
    """Shared no-op stand-in returned when a span's category is off."""

    __slots__ = ()

    def end(self, **extra: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


#: the singleton returned by :meth:`Tracer.span` when tracing is off —
#: callers can compare identity to prove the zero-allocation path.
NULL_SPAN = _NullSpan()


class Tracer:
    """Category-filtered bounded trace buffer of typed spans."""

    def __init__(self, engine: "Engine", capacity: int = 10_000) -> None:
        self.engine = engine
        self.capacity = capacity
        self._spans: Deque[SpanRecord] = deque(maxlen=capacity)
        self._enabled: Set[str] = set()
        self._all = False
        #: True when any category is enabled — a plain attribute so hot
        #: paths can skip even the ``wants()`` call when tracing is off.
        self.active = False

    def enable(self, *categories: str) -> None:
        """Enable tracing of the given categories ("*" = everything)."""
        # a dormant spin replays without spans: bring spinners up to now
        self.engine.wake_dormant()
        for cat in categories:
            if cat == "*":
                self._all = True
            else:
                self._enabled.add(cat)
        self.active = self._all or bool(self._enabled)

    def disable(self, *categories: str) -> None:
        """Disable categories ("*" clears everything)."""
        for cat in categories:
            if cat == "*":
                self._all = False
                self._enabled.clear()
            else:
                self._enabled.discard(cat)
        self.active = self._all or bool(self._enabled)

    def wants(self, category: str) -> bool:
        """True when records of ``category`` would be kept (hot-path guard)."""
        return self._all or category in self._enabled

    # -- typed spans -------------------------------------------------------

    def span(self, kind: str, source: str = "", node: Optional[int] = None,
             track: str = "", **args: Any):
        """Open a typed span (category = ``kind`` prefix before the dot).

        Returns :data:`NULL_SPAN` — no allocation, no record — when the
        category is off.  Close with ``span.end()`` or a ``with`` block.
        """
        cat = kind.split(".", 1)[0]
        if not self.wants(cat):
            return NULL_SPAN
        return Span(self, kind, source, node, track, tuple(args.items()))

    def instant(self, kind: str, source: str = "", node: Optional[int] = None,
                track: str = "", **args: Any) -> None:
        """Record a zero-duration typed occurrence (guarded like spans)."""
        cat = kind.split(".", 1)[0]
        if not self.wants(cat):
            return
        now = self.engine.now
        self._spans.append(SpanRecord(now, now, kind, source, node, track,
                                      tuple(args.items())))

    def spans(self, kind_prefix: Optional[str] = None,
              node: Optional[int] = None) -> List[SpanRecord]:
        """Snapshot of matching typed records in start-time order."""
        out = []
        for r in self._spans:
            if kind_prefix is not None and not r.kind.startswith(kind_prefix):
                continue
            if node is not None and r.node != node:
                continue
            out.append(r)
        out.sort(key=lambda r: (r.start, r.end))
        return out

    # -- maintenance -------------------------------------------------------

    def clear(self) -> None:
        """Drop all buffered records."""
        self._spans.clear()
