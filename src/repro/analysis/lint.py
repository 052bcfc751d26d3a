"""Project-specific AST lint pass: determinism + architecture rules.

The simulator's results are only trustworthy if every run is
bit-deterministic and the layering that makes the NIU model auditable
stays intact.  Generic linters cannot check either, so this pass
encodes the project's own rules over the Python AST:

======== ==============================================================
rule     meaning
======== ==============================================================
DET001   wall-clock call (``time.time``/``perf_counter``/
         ``datetime.now``...) outside ``sim/`` and ``bench/harness.py``
DET002   module-level (unseeded) ``random`` use — construct a seeded
         ``random.Random(seed)`` instead
DET003   iteration over a ``set``/``frozenset`` value in simulation
         code (nondeterministic order; ``sorted(s)`` is fine)
DET004   ``id()``-derived ordering or dict keys (address-dependent,
         differs run to run)
DET005   ``heappush`` of a ``(priority, ...)`` tuple with no sequence
         tie-breaker — equal priorities then compare the payloads,
         which is either a crash (unorderable types) or an
         address-dependent order; only ``sim/engine.py`` (whose heap
         discipline the schedule-policy hook audits) is exempt
DET006   a write to an engine's clock or schedule (``_now``, ``_seq``,
         ``_heap``, ``events_executed``) outside ``sim/`` (``tests/``
         exempt): only the kernel moves them, the dormant-spin replay's
         clock rewind included
ARCH001  layering violation: ``sim/`` imports only ``sim``/``common``;
         ``net/`` never imports ``niu``/``firmware``; ``mem/`` never
         imports ``mp``/``shm``
ARCH002  ``examples/``/``benchmarks/`` import of a repro internal —
         user-facing code sticks to the curated public surface
         (``repro``, ``repro.bench``, the programming layers); a
         deliberate internals poke needs a justifying suppression
PERF001  class registered as hot-path (engine events, packets, queue
         state...) missing ``__slots__``; or a ``HOT_CLASSES`` entry
         naming a class its module no longer defines (or a module that
         is gone), reported when the module (or the package root) is
         linted
PERF002  a yielded ``Timeout(...)`` or ``<x>.timeout(...)`` in
         ``src/`` — a process sleeps by yielding the float delay,
         which schedules the same items without an Event; keep a
         Timeout only where its Event identity is needed
PERF003  an attribute load on a hot enum class (``SnoopResult``,
         ``BusOpType``, ``AccessMode``, ``QueueKind``, ``LineState``)
         inside a function body in ``src/`` — each such load goes
         through the enum metaclass; use the module constant its
         module exports next to the class (``SNOOP_RETRY``,
         ``OP_READ``...)
ARCH003  a hand-rolled byte codec (``int.from_bytes(`` or
         ``.to_bytes(``) in ``firmware/``, ``collectives/``, ``sync/``,
         ``traffic/``, ``lib/`` or ``net/combine.py`` — message layouts are
         declared once in :mod:`repro.common.wire`; a non-wire use
         (a hash input, a DRAM word) takes a justifying suppression
======== ==============================================================

Any violation can be suppressed on its line with a justifying comment::

    for x in legal_states:  # repro: allow DET003 -- order-independent sum

Run as ``python -m repro.analysis lint [--json] PATH...``; exit status
is nonzero when violations remain, so CI can gate on it.
"""

from __future__ import annotations

import ast
import json
import os
import re
import sys
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

#: rule id -> one-line description (the JSON report embeds this table).
RULES: Dict[str, str] = {
    "DET001": "wall-clock call outside sim/ and bench/harness.py",
    "DET002": "module-level (unseeded) random use",
    "DET003": "iteration over a set/frozenset (nondeterministic order)",
    "DET004": "id()-derived ordering or dict key",
    "DET005": "heap push of a priority tuple without a seq tie-breaker",
    "DET006": "write to an engine's _now/_seq/_heap/events_executed outside sim/",
    "ARCH001": "import violates the layering rules",
    "ARCH002": "examples/benchmarks must import the public surface only",
    "PERF001": "hot-path class must declare __slots__",
    "PERF002": "yield of a fresh Timeout: yield the float delay instead",
    "PERF003": "hot enum member loaded through its class: use the module constant",
    "ARCH003": "hand-rolled byte codec: declare the layout in common/wire.py",
}

#: inline suppression: ``# repro: allow DET003`` (comma-separate several).
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\s+([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)"
)

#: wall-clock functions in the ``time`` module (DET001).
_WALL_TIME_FNS = frozenset({
    "time", "time_ns",
    "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns",
    "process_time", "process_time_ns",
})
#: wall-clock constructors on datetime/date classes (DET001).
_WALL_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: module-level functions of ``random`` (DET002); anything that is not
#: the seedable ``Random`` class shares the hidden global generator.
_RANDOM_OK = frozenset({"Random"})

#: set methods that return another set (DET003 value tracking).
_SET_RETURNING_METHODS = frozenset({
    "difference", "union", "intersection", "symmetric_difference", "copy",
})
#: conversions whose output order mirrors set iteration order (DET003).
_ORDER_SENSITIVE_CONVERTERS = frozenset({"list", "tuple", "iter", "enumerate"})

#: layering constraints: subpackage -> (mode, subpackages).  ``allow``
#: lists the only repro subpackages the layer may import; ``deny`` lists
#: the ones it must not.  (``common`` intentionally has no rule: it
#: hosts the config tree, which references the fault plan type.)
_LAYER_RULES: Dict[str, Tuple[str, Set[str]]] = {
    "sim": ("allow", {"sim", "common"}),
    "net": ("deny", {"niu", "firmware"}),
    "mem": ("deny", {"mp", "shm"}),
    # the protocol core is pure tables + bookkeeping: it may not grow a
    # dependency on the simulator, firmware, or fabric (bus is allowed —
    # the snoop table is keyed by bus-op type)
    "coherence": ("allow", {"coherence", "common", "bus"}),
    # user-level shared memory speaks to firmware through messages, not
    # by reaching into the fabric
    "shm": ("deny", {"net"}),
    # the serving applications are clients of the messaging layers; they
    # must not reach into the fabric either
    "traffic": ("deny", {"net"}),
}

#: the curated public surface (ARCH002): what user-facing code —
#: ``examples/`` and ``benchmarks/`` — may import.  Prefixes bless a
#: whole subtree (the programming layers); exact entries bless a single
#: module.  Everything else (``sim``, ``net``, ``niu``, ``firmware``,
#: ``mem``, machine internals) is simulator guts: an example that needs
#: one documents why with ``# repro: allow ARCH002 -- reason``.
_PUBLIC_PREFIXES: Tuple[str, ...] = (
    "repro.analysis", "repro.bench", "repro.coherence", "repro.common",
    "repro.explore", "repro.faults", "repro.lib", "repro.mp", "repro.obs",
    "repro.scenarios", "repro.shm", "repro.sync", "repro.traffic",
)
_PUBLIC_EXACT: Tuple[str, ...] = (
    "repro", "repro.core.blocktransfer",
)

#: hot-path class registry (PERF001): repro-relative module -> classes
#: that are allocated or touched on the simulator's inner loops.
HOT_CLASSES: Dict[Tuple[str, ...], Set[str]] = {
    ("sim", "engine.py"): {"Engine", "SchedulePolicy"},
    ("explore", "policy.py"): {"GuidedPolicy"},
    ("sim", "events.py"): {"Event", "Timeout"},
    ("sim", "process.py"): {"Process"},
    ("sim", "store.py"): {"Store"},
    ("sim", "resource.py"): {"Resource", "PriorityResource"},
    ("net", "packet.py"): {"Packet"},
    ("net", "combine.py"): {"SyncTag", "GroupProgram", "_Slot", "CombineStage"},
    ("sync", "api.py"): {
        "_NodeClient", "SyncFabric", "SyncGroup", "Counter", "TicketLock",
    },
    ("sync", "firmware.py"): {"SyncFwState", "_CentralOp"},
    ("sync", "plan.py"): {"SwitchTreePlan"},
    ("niu", "queues.py"): {"QueueState"},
    ("niu", "clssram.py"): {"ClsSram"},
    ("coherence", "directory.py"): {"DirectoryController", "DirEntry"},
    ("faults", "inject.py"): {"LinkFaultState"},
    ("firmware", "reliable.py"): {"_Flow"},
    ("traffic", "firmware.py"): {"TrafficState"},
    ("traffic", "slo.py"): {"SloRecorder"},
    ("common", "wire.py"): {"Layout"},
}

#: enums read on the simulator's inner loops (PERF003): each module
#: exports its members as constants next to the class.
HOT_ENUMS = frozenset({
    "SnoopResult", "BusOpType", "AccessMode", "QueueKind", "LineState",
})

#: where message bytes are built and parsed (ARCH003): these speak only
#: through the layouts of ``common/wire.py``.
_WIRE_SPEAKERS: Tuple[Tuple[str, ...], ...] = (
    ("firmware",), ("collectives",), ("sync",), ("traffic",), ("lib",),
    ("net", "combine.py"),
)


class Violation(NamedTuple):
    """One lint finding."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def classify(relpath: str) -> Tuple[str, Tuple[str, ...]]:
    """Split a path into (category, repro-relative parts).

    Files under a ``repro`` package directory are category ``"repro"``
    with their package-relative parts (``("net", "link.py")``);
    everything else (tests, benchmarks, examples, scripts) is
    ``"other"`` with its path parts.
    """
    parts = os.path.normpath(relpath).replace(os.sep, "/").split("/")
    if "repro" in parts:
        i = parts.index("repro")
        return "repro", tuple(parts[i + 1:])
    return "other", tuple(parts)


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids suppressed on that line."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(line)
        if m:
            out[lineno] = {r.strip() for r in m.group(1).split(",")}
    return out


def _parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _type_checking_linenos(tree: ast.AST) -> Set[int]:
    """Line numbers inside ``if TYPE_CHECKING:`` blocks (ARCH001 skips
    them: typing-only references are erased at runtime)."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = ""
        if isinstance(test, ast.Name):
            name = test.id
        elif isinstance(test, ast.Attribute):
            name = test.attr
        if name == "TYPE_CHECKING":
            for sub in node.body:
                for inner in ast.walk(sub):
                    if hasattr(inner, "lineno"):
                        lines.add(inner.lineno)
    return lines


# ----------------------------------------------------------------------
# DET001 — wall clock
# ----------------------------------------------------------------------


def _check_wall_clock(tree: ast.AST, path: str) -> List[Violation]:
    time_aliases: Set[str] = set()
    datetime_mod_aliases: Set[str] = set()
    datetime_cls_aliases: Set[str] = set()
    direct_wall: Set[str] = set()
    out: List[Violation] = []

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    time_aliases.add(alias.asname or "time")
                elif alias.name == "datetime":
                    datetime_mod_aliases.add(alias.asname or "datetime")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_TIME_FNS:
                        direct_wall.add(alias.asname or alias.name)
                        out.append(Violation(
                            "DET001", path, node.lineno, node.col_offset,
                            f"imports wall-clock time.{alias.name}",
                        ))
            elif node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date"):
                        datetime_cls_aliases.add(alias.asname or alias.name)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in direct_wall:
            out.append(Violation(
                "DET001", path, node.lineno, node.col_offset,
                f"wall-clock call {func.id}()",
            ))
        elif isinstance(func, ast.Attribute):
            base = func.value
            if (isinstance(base, ast.Name) and base.id in time_aliases
                    and func.attr in _WALL_TIME_FNS):
                out.append(Violation(
                    "DET001", path, node.lineno, node.col_offset,
                    f"wall-clock call {base.id}.{func.attr}()",
                ))
            elif func.attr in _WALL_DATETIME_FNS:
                if isinstance(base, ast.Name) and base.id in datetime_cls_aliases:
                    out.append(Violation(
                        "DET001", path, node.lineno, node.col_offset,
                        f"wall-clock call {base.id}.{func.attr}()",
                    ))
                elif (isinstance(base, ast.Attribute)
                        and base.attr in ("datetime", "date")
                        and isinstance(base.value, ast.Name)
                        and base.value.id in datetime_mod_aliases):
                    out.append(Violation(
                        "DET001", path, node.lineno, node.col_offset,
                        f"wall-clock call datetime.{base.attr}.{func.attr}()",
                    ))
    return out


# ----------------------------------------------------------------------
# DET002 — module-level random
# ----------------------------------------------------------------------


def _check_global_random(tree: ast.AST, path: str) -> List[Violation]:
    random_aliases: Set[str] = set()
    out: List[Violation] = []
    seen: Set[Tuple[int, int]] = set()

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    random_aliases.add(alias.asname or "random")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                if alias.name not in _RANDOM_OK:
                    out.append(Violation(
                        "DET002", path, node.lineno, node.col_offset,
                        f"imports module-level random.{alias.name}; "
                        "use a seeded random.Random instance",
                    ))

    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in random_aliases
                and node.attr not in _RANDOM_OK):
            key = (node.lineno, node.col_offset)
            if key not in seen:
                seen.add(key)
                out.append(Violation(
                    "DET002", path, node.lineno, node.col_offset,
                    f"module-level random.{node.attr}; "
                    "use a seeded random.Random instance",
                ))
    return out


# ----------------------------------------------------------------------
# DET003 — set iteration
# ----------------------------------------------------------------------

_SET_ANNOTATION_RE = re.compile(
    r"\b(set|frozenset|Set|FrozenSet|MutableSet|AbstractSet)\b"
)


def _is_set_annotation(annotation: ast.AST) -> bool:
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return bool(_SET_ANNOTATION_RE.search(text))


class _SetScanner:
    """Two-pass set-typed-value tracker, scoped per function."""

    def __init__(self, tree: ast.Module, path: str) -> None:
        self.tree = tree
        self.path = path
        #: attribute names known set-typed anywhere in the module
        #: (``self.sharers = set()``, ``sharers: Set[int]`` fields).
        self.set_attrs: Set[str] = set()
        self.module_names: Set[str] = set()
        self.out: List[Violation] = []

    def run(self) -> List[Violation]:
        self._collect_attrs(self.tree)
        self.module_names = self._collect_names(self.tree)
        self._check_scope(self.tree, self.module_names)
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local = self._collect_names(node)
                self._check_scope(node, self.module_names | local)
        return self.out

    # -- collection --------------------------------------------------------

    def _collect_attrs(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and self._is_set_expr(
                            node.value, set()):
                        self.set_attrs.add(target.attr)
            elif isinstance(node, ast.AnnAssign):
                if (isinstance(node.target, ast.Attribute)
                        and _is_set_annotation(node.annotation)):
                    self.set_attrs.add(node.target.attr)
                elif (isinstance(node.target, ast.Name)
                        and _is_set_annotation(node.annotation)
                        and self._in_class_body(node)):
                    # annotated class attribute / dataclass field
                    self.set_attrs.add(node.target.id)

    def _in_class_body(self, node: ast.AST) -> bool:
        # cheap approximation: an AnnAssign Name target at class scope is
        # listed in some ClassDef body
        for cls in ast.walk(self.tree):
            if isinstance(cls, ast.ClassDef) and node in cls.body:
                return True
        return False

    def _iter_scope(self, scope: ast.AST) -> Iterable[ast.AST]:
        """Walk a scope without descending into nested functions."""
        body = scope.body if hasattr(scope, "body") else []
        stack = list(body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # a nested scope checks itself
            stack.extend(ast.iter_child_nodes(node))

    def _collect_names(self, scope: ast.AST) -> Set[str]:
        names: Set[str] = set()
        # two sweeps so chained assignment (a = b | c after b = set())
        # converges within a scope
        for _ in range(2):
            for node in self._iter_scope(scope):
                if isinstance(node, ast.Assign) and self._is_set_expr(
                        node.value, names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                elif (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)
                        and _is_set_annotation(node.annotation)):
                    names.add(node.target.id)
        return names

    # -- the predicate ------------------------------------------------------

    def _is_set_expr(self, node: ast.AST, names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (isinstance(func, ast.Attribute)
                    and func.attr in _SET_RETURNING_METHODS
                    and self._is_set_expr(func.value, names)):
                return True
            return False
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
            return (self._is_set_expr(node.left, names)
                    or self._is_set_expr(node.right, names))
        return False

    # -- checking -----------------------------------------------------------

    def _flag(self, node: ast.AST, what: str) -> None:
        self.out.append(Violation(
            "DET003", self.path, node.lineno, node.col_offset,
            f"{what} iterates a set/frozenset (nondeterministic order); "
            "sort it first",
        ))

    def _check_scope(self, scope: ast.AST, names: Set[str]) -> None:
        for node in self._iter_scope(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if self._is_set_expr(node.iter, names):
                    self._flag(node, "for loop")
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if self._is_set_expr(gen.iter, names):
                        self._flag(node, "comprehension")
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name)
                        and func.id in _ORDER_SENSITIVE_CONVERTERS
                        and node.args
                        and self._is_set_expr(node.args[0], names)):
                    self._flag(node, f"{func.id}()")


def _check_set_iteration(tree: ast.Module, path: str) -> List[Violation]:
    return _SetScanner(tree, path).run()


# ----------------------------------------------------------------------
# DET004 — id()-derived order
# ----------------------------------------------------------------------

_ORDERING_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _check_id_ordering(tree: ast.AST, path: str) -> List[Violation]:
    parents = _parent_map(tree)
    out: List[Violation] = []

    def flag(node: ast.AST, why: str) -> None:
        out.append(Violation(
            "DET004", path, node.lineno, node.col_offset,
            f"id() used as {why} (address-derived, varies across runs)",
        ))

    for node in ast.walk(tree):
        # sorted(xs, key=id) / list.sort(key=id)
        if (isinstance(node, ast.keyword) and node.arg == "key"
                and isinstance(node.value, ast.Name)
                and node.value.id == "id"):
            flag(node.value, "a sort key")
            continue
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"):
            continue
        child: ast.AST = node
        parent = parents.get(child)
        # tuples are transparent: (id(a), x) as a dict key or subscript
        while isinstance(parent, ast.Tuple):
            child, parent = parent, parents.get(parent)
        if parent is None:
            continue
        if isinstance(parent, ast.Dict) and child in parent.keys:
            flag(node, "a dict key")
        elif isinstance(parent, ast.Subscript) and child is parent.slice:
            flag(node, "a subscript key")
        elif isinstance(parent, ast.Compare) and any(
                isinstance(op, _ORDERING_OPS) for op in parent.ops):
            flag(node, "an ordering comparison")
        elif (isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in ("sorted", "min", "max")
                and child in parent.args):
            flag(node, f"a {parent.func.id}() argument")
        else:
            # inside a key= lambda body?
            walk = parent
            while walk is not None:
                if isinstance(walk, ast.keyword) and walk.arg == "key":
                    flag(node, "a sort key")
                    break
                walk = parents.get(walk)
    return out


# ----------------------------------------------------------------------
# DET005 — heap entries need a seq tie-breaker
# ----------------------------------------------------------------------

_HEAP_PUSH_FNS = frozenset({"heappush", "heappushpop"})


def _mentions_seq(node: ast.AST) -> bool:
    """Whether an expression references a sequence-counter identifier."""
    for sub in ast.walk(node):
        ident = None
        if isinstance(sub, ast.Name):
            ident = sub.id
        elif isinstance(sub, ast.Attribute):
            ident = sub.attr
        if ident is not None and "seq" in ident.lower():
            return True
    return False


def _check_heap_ties(tree: ast.AST, path: str) -> List[Violation]:
    """Flag ``heappush(heap, (priority, payload...))`` with no element
    naming a sequence counter.  Ties on the priority then compare the
    payloads: a crash for unorderable types, an address-dependent order
    otherwise — either way the heap's pop order is not a deterministic
    function of the push history."""
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and len(node.args) >= 2):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        if name not in _HEAP_PUSH_FNS:
            continue
        entry = node.args[1]
        if not isinstance(entry, ast.Tuple) or len(entry.elts) < 2:
            continue
        if any(_mentions_seq(el) for el in entry.elts):
            continue
        out.append(Violation(
            "DET005", path, node.lineno, node.col_offset,
            "heap entry tuple has no seq tie-breaker: equal priorities "
            "fall through to comparing the payloads (crash or "
            "address-dependent order); add a monotonic counter after "
            "the priority",
        ))
    return out


# ----------------------------------------------------------------------
# DET006 — only the kernel moves an engine's clock and schedule
# ----------------------------------------------------------------------

_ENGINE_STATE = frozenset({"_now", "_seq", "_heap", "events_executed"})
_HEAP_FNS = frozenset({"heappush", "heappop", "heapreplace", "heappushpop",
                       "heapify"})
_LIST_MUTATORS = frozenset({"append", "extend", "insert", "pop", "remove",
                            "clear", "sort"})


def _engine_state(node: ast.AST) -> Optional[ast.Attribute]:
    """``node`` when it names an engine state attribute of another
    object (``engine._now``, ``self.engine._seq``; not ``self._seq``,
    an object's own attribute), else None."""
    if (isinstance(node, ast.Attribute) and node.attr in _ENGINE_STATE
            and not (isinstance(node.value, ast.Name)
                     and node.value.id == "self")):
        return node
    return None


def _written(target: ast.AST) -> Iterable[ast.AST]:
    """The expressions an assignment target writes through."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for el in target.elts:
            yield from _written(el)
    elif isinstance(target, ast.Starred):
        yield from _written(target.value)
    elif isinstance(target, ast.Subscript):
        yield target.value
    else:
        yield target


def _check_engine_writes(tree: ast.AST, path: str) -> List[Violation]:
    """Flag assignments, deletions and in-place heap or list mutations
    of an engine's ``_now``, ``_seq``, ``_heap`` or ``events_executed``."""
    out: List[Violation] = []

    def flag(node: ast.AST, attr: str) -> None:
        out.append(Violation(
            "DET006", path, node.lineno, node.col_offset,
            f"write to an engine's {attr} outside repro.sim: only the "
            "kernel moves the clock, the sequence counter and the heap",
        ))

    for node in ast.walk(tree):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else "")
            if name in _HEAP_FNS:
                targets = [node.args[0]]
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in _LIST_MUTATORS):
            targets = [node.func.value]
        for target in targets:
            for written in _written(target):
                hit = _engine_state(written)
                if hit is not None:
                    flag(node, hit.attr)
    return out


# ----------------------------------------------------------------------
# ARCH001 — layering
# ----------------------------------------------------------------------


def _check_layering(tree: ast.AST, path: str,
                    module_parts: Tuple[str, ...]) -> List[Violation]:
    layer = module_parts[0] if module_parts else ""
    rule = _LAYER_RULES.get(layer)
    if rule is None:
        return []
    mode, subpackages = rule
    skip_lines = _type_checking_linenos(tree)
    out: List[Violation] = []

    def check(target: str, node: ast.AST) -> None:
        if node.lineno in skip_lines:
            return
        parts = target.split(".")
        if parts[0] != "repro":
            return
        sub = parts[1] if len(parts) > 1 else None
        if sub is None:
            bad, why = True, "imports the repro package root"
        elif mode == "allow":
            bad = sub not in subpackages
            why = (f"{layer}/ may only import "
                   f"{{{', '.join(sorted(subpackages))}}}, not repro.{sub}")
        else:
            bad = sub in subpackages
            why = f"{layer}/ must not import repro.{sub}"
        if bad:
            out.append(Violation(
                "ARCH001", path, node.lineno, node.col_offset, why,
            ))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                check(alias.name, node)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            check(node.module, node)
    return out


# ----------------------------------------------------------------------
# ARCH002 — examples/benchmarks stay on the public surface
# ----------------------------------------------------------------------


def _is_public_module(target: str) -> bool:
    if target in _PUBLIC_EXACT:
        return True
    return any(target == p or target.startswith(p + ".")
               for p in _PUBLIC_PREFIXES)


def _check_public_surface(tree: ast.AST, path: str) -> List[Violation]:
    out: List[Violation] = []

    def check(target: str, node: ast.AST) -> None:
        if target.split(".")[0] != "repro":
            return
        if not _is_public_module(target):
            out.append(Violation(
                "ARCH002", path, node.lineno, node.col_offset,
                f"{target} is a simulator internal, not public surface; "
                "use the curated API or justify with a suppression",
            ))

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                check(alias.name, node)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            check(node.module, node)
    return out


# ----------------------------------------------------------------------
# PERF001 — hot classes need __slots__
# ----------------------------------------------------------------------


def _check_slots(tree: ast.AST, path: str,
                 module_parts: Tuple[str, ...]) -> List[Violation]:
    wanted = HOT_CLASSES.get(module_parts)
    if not wanted:
        return []
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name in wanted):
            continue
        has_slots = any(
            (isinstance(stmt, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__"
                     for t in stmt.targets))
            or (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__")
            for stmt in node.body
        )
        if not has_slots:
            out.append(Violation(
                "PERF001", path, node.lineno, node.col_offset,
                f"hot-path class {node.name} must declare __slots__",
            ))
    return out


def _check_hot_registry(defined: Dict[Tuple[str, ...], Tuple[str, Set[str]]],
                        root: Optional[str]) -> List[Violation]:
    """PERF001's registry half: every ``HOT_CLASSES`` class a linted
    module (``defined``: its path and the classes it defines) does not
    define, and, when the package root ``__init__.py`` was linted, every
    registered module that is gone."""
    out: List[Violation] = []
    for parts, wanted in sorted(HOT_CLASSES.items()):
        module = "/".join(parts)
        if parts in defined:
            path, names = defined[parts]
            for name in sorted(wanted - names):
                out.append(Violation(
                    "PERF001", path, 1, 0,
                    f"HOT_CLASSES names {name}, which {module} does not "
                    "define",
                ))
        elif root is not None:
            out.append(Violation(
                "PERF001", root, 1, 0,
                f"HOT_CLASSES names {module}, which does not exist",
            ))
    return out


# ----------------------------------------------------------------------
# PERF002 — sleep with a float, not a Timeout
# ----------------------------------------------------------------------


def _check_timeout_yields(tree: ast.AST, path: str) -> List[Violation]:
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Yield) and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        if ((isinstance(func, ast.Name) and func.id == "Timeout")
                or (isinstance(func, ast.Attribute)
                    and func.attr in ("Timeout", "timeout"))):
            out.append(Violation(
                "PERF002", path, node.lineno, node.col_offset,
                "yield of a fresh Timeout: yield the float delay in ns",
            ))
    return out


# ----------------------------------------------------------------------
# PERF003 — hot enum members through their module constants
# ----------------------------------------------------------------------


def _check_enum_loads(tree: ast.AST, path: str) -> List[Violation]:
    out: List[Violation] = []
    seen: Set[Tuple[int, int]] = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.Lambda):
            body: List[ast.AST] = [fn.body]
        elif isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = list(fn.body)
        else:
            continue
        # only the body: defaults, decorators and annotations run once
        for stmt in body:
            for node in ast.walk(stmt):
                if not (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in HOT_ENUMS):
                    continue
                where = (node.lineno, node.col_offset)
                if where in seen:  # nested functions are walked twice
                    continue
                seen.add(where)
                out.append(Violation(
                    "PERF003", path, node.lineno, node.col_offset,
                    f"{node.value.id}.{node.attr} in a function body: load "
                    "the module constant instead",
                ))
    return out


# ----------------------------------------------------------------------
# ARCH003 — message bytes go through the wire registry
# ----------------------------------------------------------------------


def _check_byte_codecs(tree: ast.AST, path: str) -> List[Violation]:
    out: List[Violation] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if func.attr == "to_bytes" or (
                func.attr == "from_bytes"
                and isinstance(func.value, ast.Name)
                and func.value.id == "int"):
            out.append(Violation(
                "ARCH003", path, node.lineno, node.col_offset,
                f"hand-rolled {func.attr}: declare the message layout in "
                "repro.common.wire (or justify a non-wire use)",
            ))
    return out


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------


def check_source(source: str, relpath: str) -> List[Violation]:
    """Lint one file's source; returns unsuppressed violations."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return [Violation("PARSE", relpath, exc.lineno or 1, 0,
                          f"syntax error: {exc.msg}")]
    category, module_parts = classify(relpath)
    in_repro = category == "repro"
    violations: List[Violation] = []

    if in_repro and module_parts[0:1] != ("sim",) \
            and module_parts != ("bench", "harness.py"):
        violations += _check_wall_clock(tree, relpath)
    if in_repro or module_parts[0:1] in (("benchmarks",), ("examples",)):
        violations += _check_global_random(tree, relpath)
    if module_parts[0:1] in (("benchmarks",), ("examples",)):
        violations += _check_public_surface(tree, relpath)
    if in_repro:
        violations += _check_set_iteration(tree, relpath)
        violations += _check_layering(tree, relpath, module_parts)
        violations += _check_slots(tree, relpath, module_parts)
        violations += _check_timeout_yields(tree, relpath)
        violations += _check_enum_loads(tree, relpath)
        if any(module_parts[:len(w)] == w for w in _WIRE_SPEAKERS):
            violations += _check_byte_codecs(tree, relpath)
    violations += _check_id_ordering(tree, relpath)
    if module_parts != ("sim", "engine.py"):
        violations += _check_heap_ties(tree, relpath)
    if not (module_parts[0:1] == ("sim",) if in_repro
            else "tests" in module_parts):
        violations += _check_engine_writes(tree, relpath)

    suppressed = _suppressions(source)
    kept = [v for v in violations
            if v.rule not in suppressed.get(v.line, frozenset())]
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return kept


def iter_py_files(paths: Sequence[str]) -> Iterable[str]:
    """Expand files/directories into .py files, deterministically."""
    skip_dirs = {"__pycache__", ".git", "results", "build", "dist"}
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in skip_dirs and not d.endswith(".egg-info")
            )
            for fn in sorted(filenames):
                if fn.endswith(".py"):
                    yield os.path.join(dirpath, fn)


def lint_paths(paths: Sequence[str]) -> Tuple[List[Violation], int]:
    """Lint every .py file under ``paths``; returns (violations, n_files)."""
    violations: List[Violation] = []
    n_files = 0
    defined: Dict[Tuple[str, ...], Tuple[str, Set[str]]] = {}
    root = None
    for path in iter_py_files(paths):
        n_files += 1
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        relpath = os.path.normpath(path)
        found = check_source(source, relpath)
        violations += found
        category, parts = classify(relpath)
        if category != "repro" or any(v.rule == "PARSE" for v in found):
            continue
        if parts == ("__init__.py",):
            root = relpath
        if parts in HOT_CLASSES:
            defined[parts] = (relpath, {
                node.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ClassDef)})
    violations += _check_hot_registry(defined, root)
    return violations, n_files


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="StarT-Voyager project lint: determinism and "
                    "architecture rules (see DESIGN.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    lint_p = sub.add_parser("lint", help="run the AST lint pass")
    lint_p.add_argument("paths", nargs="+", help="files or directories")
    lint_p.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable report on stdout")
    args = parser.parse_args(argv)

    violations, n_files = lint_paths(args.paths)
    if args.as_json:
        print(json.dumps({
            "schema": "startv.lint",
            "schema_version": 1,
            "checked_files": n_files,
            "rules": RULES,
            "violations": [v._asdict() for v in violations],
        }, indent=2, sort_keys=True))
    else:
        for v in violations:
            print(v.render())
        print(f"{len(violations)} violation(s) in {n_files} file(s) checked.",
              file=sys.stderr)
    return 1 if violations else 0
