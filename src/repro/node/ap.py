"""The application processor (aP) and the program API.

The aP is a PowerPC 604e in the model's behavioural sense: user
"programs" are Python generators driven by :class:`AppProcessor`; they
see an :class:`ApApi` handle offering loads, stores, compute time, and
waiting.  Every memory operation is routed by the node's address map:

* ``CACHED`` regions go through the snooping L2;
* ``UNCACHED`` regions become single-beat bus operations;
* ``BURST`` regions use cache-line bursts where alignment allows (the
  aSRAM message-buffer windows).

Occupancy accounting is explicit: the aP is *busy* while computing or
performing memory operations (including spinning on retried bus
operations — the S-COMA stall pathology), and *idle* inside
:meth:`ApApi.wait` / :meth:`ApApi.sleep`.  The §6 experiments read this
tracker to compare per-approach processor overhead.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Generator, List, Optional,
                    Tuple)

from repro.bus.ops import (OP_READ, OP_READ_LINE, OP_WRITE, OP_WRITE_LINE,
                           BusTransaction)
from repro.common.config import MachineConfig
from repro.common.errors import ProgramError
from repro.mem.address import MODE_BURST, MODE_CACHED, AccessMode
from repro.mem.backing import ByteBacking
from repro.mem.sram import PORT_BUS
from repro.sim.process import Spin

if TYPE_CHECKING:  # pragma: no cover
    from repro.mem.sram import DualPortedSRAM
    from repro.niu.abiu import BusHandler
    from repro.node.node import NodeBoard
    from repro.sim.events import Event
    from repro.sim.process import Process


class ApApi:
    """What a user program sees: the processor's instruction repertoire.

    ``pid`` identifies the OS process the program models.  The aP tags
    every bus operation with it, and NIU queue windows enforce ownership
    against it — the paper's protection story for "more general parallel
    computing and more flexible job-scheduling in multitasking".  Pid 0
    is the kernel/single-job default that every queue accepts.
    """

    def __init__(self, ap: "AppProcessor", pid: int = 0) -> None:
        self._ap = ap
        self.node = ap.node
        self.node_id = ap.node.node_id
        self.engine = ap.engine
        self.pid = pid

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in ns."""
        return self.engine.now

    def compute(self, n_insns: int) -> Generator["Event", None, None]:
        """Execute ``n_insns`` instructions of local computation."""
        ap = self._ap
        ap.busy.begin()
        try:
            # ProcessorConfig.insn_ns on the aP's hoisted constants
            yield n_insns * ap.cpi * ap.cycle_ns
        finally:
            ap.busy.end()

    def sleep(self, ns: float) -> Generator["Event", None, None]:
        """Idle for ``ns`` (not counted as occupancy)."""
        yield float(ns)

    def wait(self, event: "Event") -> Generator["Event", None, Any]:
        """Block on an event without accruing occupancy ("do other work")."""
        value = yield event
        return value

    # -- memory ------------------------------------------------------------
    #
    # load, store and store_u32 are plain functions returning the aP's
    # own generator (as ABiu.serve returns its handler's): no ApApi frame
    # sits in the chain a spinning poll resumes.  Argument errors still
    # surface at the first resume, inside AppProcessor.access.

    def load(self, addr: int, size: int) -> Generator["Event", None, bytes]:
        """Read ``size`` bytes from physical address ``addr``."""
        return self._ap.access(addr, size, None, self.pid)

    def store(self, addr: int, data: bytes) -> Generator["Event", None, None]:
        """Write ``data`` at physical address ``addr``."""
        return self._ap.access(addr, len(data), data, self.pid)

    def load_u32(self, addr: int) -> Generator["Event", None, int]:
        """4-byte big-endian load."""
        raw = yield from self._ap.access(addr, 4, None, self.pid)
        return int.from_bytes(raw, "big")

    def store_u32(self, addr: int, value: int) -> Generator["Event", None, None]:
        """4-byte big-endian store."""
        return self._ap.access(
            addr, 4, (value & 0xFFFFFFFF).to_bytes(4, "big"), self.pid)

    def shadow_poll(self, addr: int) -> Optional["ShadowPoll"]:
        """The :class:`ShadowPoll` of a loop spinning on 4-byte loads of
        the NIU register at ``addr``, or None when such a load is not
        served from an aSRAM pointer shadow (or has not been yet)."""
        ap = self._ap
        abiu = ap.node.niu.abiu
        handler = abiu.handler_for(addr)
        shadow = handler.polled_shadow(addr) if handler is not None else None
        if shadow is None or shadow[0] is not ap.node.ctrl.asram:
            return None
        return ShadowPoll(ap, abiu, handler, addr, *shadow)


class ShadowPoll(Spin):
    """The guards of an empty poll of an SRAM-shadowed NIU register.

    An empty :meth:`repro.mp.basic.BasicPort.recv` iteration is one
    uncached 4-byte load of the rx producer pointer, then the loop's
    compute.  It touches the aP's busy tracker, one transaction on the
    node bus (its arbiter, the L2's snoop, which finds nothing, and the
    aBIU's, which claims it for the pointer window), the node's address
    map and the aBIU's handler table, and the pointer's shadow bytes
    through the aSRAM's bus port.  :meth:`guard` puts a guard on each:
    any other use of the busy tracker (another program computing or
    accessing memory), any other transaction on the bus, any change to
    the map or the handler table, and any write that changes a shadow
    byte wakes the spin first.  It is :meth:`ready` only while the bus
    and that port are idle, tracing is off, and the register still
    resolves to the same uncached region and handler.

    The iteration is five sleeps: the bus's arbitration and address
    tenure, its snoop window, the aBIU's CTRL op, the shadow read through
    the port, and the loop's compute, which a dormant spin is parked in.
    :meth:`skip` replays whole ones arithmetically.
    """

    __slots__ = ("ap", "abiu", "handler", "addr", "bank", "lo", "hi")

    sleeps = 5

    def __init__(self, ap: "AppProcessor", abiu: Any, handler: "BusHandler",
                 addr: int, bank: "DualPortedSRAM", offset: int) -> None:
        super().__init__(ap.engine)
        self.ap = ap
        self.abiu = abiu
        self.handler = handler
        self.addr = addr
        self.bank = bank
        #: the watched shadow bytes
        self.lo = offset
        self.hi = offset + 4

    def ready(self) -> bool:
        ap = self.ap
        tracer = ap.tracer
        return not (
            (tracer is not None and tracer.active)
            or ap.busy.waker is not None
            or not ap._bus.idle()
            or not self.bank.port_idle(PORT_BUS)
            or self.abiu.handler_for(self.addr) is not self.handler
            or ap._address_map.lookup(self.addr, 4).mode is MODE_CACHED)

    def guard(self, waker: Optional[Spin]) -> None:
        ap = self.ap
        ap.busy.waker = ap._bus.waker = ap._address_map.waker = waker
        self.abiu.waker = self.bank.watch = waker

    def skip(self, due: float, t: float, inclusive: bool) -> Tuple[float, int]:
        """Whole empty iterations from the end of the loop's compute at
        ``due``, with the slow path's floats: each sleep ends at the
        previous end plus its delay, and each busy time adds the same
        terms in the same order as the poll code (the aP's compute, then
        its load; the bus held from arbitration to the read's end; the
        port for the read).  The counters the poll code steps by one per
        iteration take the iteration count.  Nothing else changes: the
        aBIU's claim is served in the same iteration, and the L2's snoop
        reacts to nothing after the first (the spin went dormant only
        after one full iteration).  Returns where the pending compute
        then ends and how many iterations were skipped: none when the
        shadow read is not the plain backing read, the bus counters are
        not yet created, or the compute's busy section is nested in
        another."""
        ap = self.ap
        bus = ap._bus
        busy = ap.busy
        bank = self.bank
        txns, n_bytes = bus._txns, bus._bytes
        if (txns is None or n_bytes is None or busy._depth != 1
                or type(bank.backing).read is not ByteBacking.read):
            return due, 0
        address, snoop = bus._address_ns, bus._snoop_ns
        op = ap.node.ctrl.op_ns
        # DualPortedSRAM.read's beats for the 4 shadow bytes
        read = max(1, -(-4 // bank.width_bytes)) * bank.access_ns
        compute = self.delay
        arbiter = bus._arbiter
        port = bank._ports[PORT_BUS]
        busy_ns, since = busy.busy_ns, busy._since
        bus_ns, port_ns = arbiter._busy_time, port._busy_time
        n = 0
        while True:
            e1 = due + address
            e2 = e1 + snoop
            e3 = e2 + op
            e4 = e3 + read
            e5 = e4 + compute
            if e5 > t or (e5 == t and not inclusive):
                break
            busy_ns += due - since
            busy_ns += e4 - due
            bus_ns += e4 - due
            port_ns += e4 - e3
            since = e4
            due = e5
            n += 1
        if n:
            busy.busy_ns, busy._since = busy_ns, since
            arbiter._busy_time, port._busy_time = bus_ns, port_ns
            ap.loads += n
            self.abiu.observed += n
            txns.value += n
            n_bytes.value += 4 * n
        return due, n


class AppProcessor:
    """Drives user program generators against one node's memory system."""

    def __init__(self, node: "NodeBoard") -> None:
        self.node = node
        self.engine = node.engine
        self.config: MachineConfig = node.config
        self.name = f"ap{node.node_id}"
        self.busy = node.stats.busy_tracker(f"{self.name}.busy")
        # per-operation constants, read once (ApApi.compute, _bus_span)
        self.cpi = self.config.ap.cpi
        self.cycle_ns = self.config.ap.cycle_ns
        self._line_bytes = self.config.bus.line_bytes
        # the node's map and bus, fixed at assembly: one load per access
        self._address_map = node.address_map
        self._bus = node.bus
        self.tracer = node.tracer
        self.loads = 0
        self.stores = 0
        #: every program ever started on this aP; fault injection kills
        #: the live ones when the node crashes.
        self.programs: List["Process"] = []

    # -- program execution ----------------------------------------------------

    def run(self, program: Callable[..., Generator], *args: Any,
            name: Optional[str] = None, pid: int = 0) -> "Process":
        """Start ``program(api, *args)`` as a process on this aP.

        ``pid`` tags the program's bus operations for queue-ownership
        protection (0 = kernel: accepted everywhere).
        """
        if self.busy.waker is not None:
            self.busy.waker.wake()
        api = ApApi(self, pid=pid)
        proc = self.engine.process(
            program(api, *args), name=name or f"{self.name}.{program.__name__}"
        )
        self.programs.append(proc)
        return proc

    # -- memory access routing ----------------------------------------------------

    def access(self, addr: int, size: int, data: Optional[bytes],
               pid: int = 0) -> Generator["Event", None, Optional[bytes]]:
        """Perform one load (``data is None``) or store, split as needed."""
        if size <= 0:
            raise ProgramError(f"access size must be positive, got {size}")
        region = self._address_map.lookup(addr, size)
        # hot path: `active` is a plain attribute, so with tracing off the
        # whole observability layer costs one attribute load here
        tr = self.tracer
        span = (tr.span("ap.store" if data is not None else "ap.load",
                        source=self.name, node=self.node.node_id,
                        track="aP", addr=addr, size=size)
                if tr is not None and tr.active else None)
        mode = region.mode
        self.busy.begin()
        try:
            if data is None:
                self.loads += 1
                if mode is not MODE_CACHED:
                    n, burst = self._bus_span(addr, size, mode)
                    if n == size:
                        # one bus transaction, issued here: a pointer
                        # poll resumes no frame between access and the bus
                        txn = BusTransaction(OP_READ_LINE if burst else OP_READ,
                                             addr, n, master=self.name, tag=pid)
                        yield from self._bus.transact(txn)
                        data = txn.data
                        return data if type(data) is bytes else bytes(data)
                    return (yield from self._read_spans(addr, size, mode, pid))
                return (yield from self._read_cached(addr, size))
            self.stores += 1
            yield from self._write(mode, addr, data, pid)
            return None
        finally:
            self.busy.end()
            if span is not None:
                span.end()

    # -- read paths -------------------------------------------------------------

    def _read_cached(self, addr: int, size: int
                     ) -> Generator["Event", None, bytes]:
        parts = []
        for a, n in self._line_spans(addr, size):
            parts.append((yield from self.node.l2.load(a, n)))
        return b"".join(parts)

    def _read_spans(self, addr: int, size: int, mode: AccessMode, pid: int
                    ) -> Generator["Event", None, bytes]:
        """An uncached read of more than one bus transfer, gathered."""
        bus = self._bus
        parts = []
        while True:
            n, burst = self._bus_span(addr, size, mode)
            txn = BusTransaction(OP_READ_LINE if burst else OP_READ,
                                 addr, n, master=self.name, tag=pid)
            yield from bus.transact(txn)
            parts.append(txn.data)
            addr += n
            size -= n
            if not size:
                # single gather of the per-span results
                return b"".join(parts)

    def _write(self, mode: AccessMode, addr: int, data: bytes, pid: int
               ) -> Generator["Event", None, None]:
        # pin mutable buffers once, then ride zero-copy slices of the
        # immutable copy through every span's transaction
        if type(data) is not bytes:
            data = bytes(data)
        size = len(data)
        if mode is MODE_CACHED:
            mv = memoryview(data)
            off = 0
            for a, n in self._line_spans(addr, size):
                yield from self.node.l2.store(a, mv[off : off + n])
                off += n
            return
        bus = self._bus
        n, burst = self._bus_span(addr, size, mode)
        if n == size:  # one transaction carries the whole store
            txn = BusTransaction(OP_WRITE_LINE if burst else OP_WRITE,
                                 addr, n, data=data, master=self.name, tag=pid)
            yield from bus.transact(txn)
            return
        mv = memoryview(data)
        off = 0
        while True:
            op = OP_WRITE_LINE if burst else OP_WRITE
            txn = BusTransaction(op, addr, n, data=mv[off : off + n],
                                 master=self.name, tag=pid)
            yield from bus.transact(txn)
            addr += n
            off += n
            if off == size:
                return
            n, burst = self._bus_span(addr, size - off, mode)

    # -- access decomposition ----------------------------------------------------
    #
    # The 604 performs naturally-aligned transfers: cached accesses split
    # at line boundaries, uncached at 8-byte boundaries, burst windows use
    # full-line transfers where aligned and singles at the ragged edges.

    def _line_spans(self, addr: int, size: int):
        line = self._line_bytes
        while size > 0:
            n = min(line - (addr % line), size)
            yield addr, n
            addr += n
            size -= n

    def _bus_span(self, addr: int, size: int, mode: AccessMode):
        """The first bus transfer of ``size`` bytes at ``addr``:
        ``(bytes, is_burst)``; callers step past it for the rest."""
        line = self._line_bytes
        if mode is MODE_BURST and addr % line == 0 and size >= line:
            return line, True
        n = min(8 - (addr % 8), size)
        if mode is MODE_BURST:
            n = min(n, line - (addr % line))
        return n, False
