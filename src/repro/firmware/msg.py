"""Miss/overflow queue service: DRAM-resident receive queues.

"Firmware will then process the message in the miss/overflow queue and
write it to its non-resident (DRAM) location.  Selectively caching
queues enables the NIU to support a large number of logical destinations
efficiently, while using only a small amount of resources."

A non-resident logical queue is a ring in ordinary DRAM.  Firmware
appends entries with command-stream DRAM writes; the application polls
the ring's producer counter with plain cached loads — the NIU's write
invalidates the aP's cached copy through normal bus snooping, so polling
is cheap until something actually arrives.

Ring layout (all big-endian):

====== =====================================
offset contents
====== =====================================
0      producer count (u32, firmware-owned)
4      consumer count (u32, reader-owned)
64+    entries: 8-byte header + 88 payload
====== =====================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, Tuple

from repro.common.errors import ConfigError
from repro.firmware.base import fw_dram_write
from repro.niu.msgformat import ENTRY_BYTES, encode_rx_header
from repro.niu.niu import SP_REL_TX_QUEUE, SP_SERVICE_QUEUE

if TYPE_CHECKING:  # pragma: no cover
    from repro.niu.sp import ServiceProcessor
    from repro.sim.events import Event

RING_HEADER_BYTES = 64

#: Behavior-model switch for the interleaving explorer
#: (:mod:`repro.explore.models`, model ``"overflow_drop"``).  When
#: False, entries of an sP-owned (interrupt-dispatched) queue that
#: overflowed into the miss queue are *dropped* instead of redelivered
#: to their message handler — the pre-fix behavior whose barrier hang
#: the explorer re-finds as a regression.  Always True in normal runs.
REDELIVER_SP_OVERFLOW = True


@dataclass
class DramRing:
    """Descriptor of one DRAM-resident logical queue."""

    base: int
    depth: int

    def entry_addr(self, n: int) -> int:
        """DRAM address of entry number ``n``."""
        return self.base + RING_HEADER_BYTES + (n % self.depth) * ENTRY_BYTES


def declare_dram_queue(sp: "ServiceProcessor", logical: int,
                       base: int, depth: int) -> DramRing:
    """Register a DRAM ring as the home of a non-resident logical queue.

    Logical queues 5-10 belong to the sP firmware (service, protocol,
    notify, bulk and the two reliable-delivery queues), whose
    dispatchers would parse the ring's messages as their own.
    """
    if SP_SERVICE_QUEUE <= logical <= SP_REL_TX_QUEUE:
        raise ConfigError(f"logical queue {logical} is owned by the sP "
                          f"firmware; a DRAM ring cannot home it")
    rings: Dict[int, DramRing] = sp.state.setdefault("dram_rings", {})
    ring = DramRing(base, depth)
    rings[logical] = ring
    sp.state.setdefault("dram_ring_producer", {})[logical] = 0
    return ring


def missq_service(sp: "ServiceProcessor", event: Tuple
                  ) -> Generator["Event", None, None]:
    """The ``missq`` event handler: drain CTRL's miss/overflow queue."""
    ctrl = sp.ctrl
    rings: Dict[int, DramRing] = sp.state.get("dram_rings", {})
    producers: Dict[int, int] = sp.state.get("dram_ring_producer", {})
    handlers = sp.state.get("msg_handlers", {})
    specials = sp.state.get("queue_dispatchers", {})
    while not ctrl.miss_queue.is_empty:
        kind, logical, src, payload, flags = ctrl.miss_queue.try_get()
        yield sp.compute(sp.fw.missq_service_insns)
        ring = rings.get(logical)
        if ring is None:
            # An sP-owned queue (interrupt-dispatched, no special drain
            # routine) that overflowed under a burst: the message is
            # already in hand, so firmware processes it here exactly as
            # the rxmsg dispatcher would have.
            slot = ctrl.rx_cache.resident().get(logical)
            q = ctrl.rx_queues[slot] if slot is not None else None
            if (REDELIVER_SP_OVERFLOW
                    and q is not None and q.interrupt_on_arrival
                    and logical not in specials and payload
                    and payload[0] in handlers):
                ctrl.stats.counter(f"{ctrl.name}.missq_redelivered").incr()
                yield from handlers[payload[0]](sp, src, payload)
                continue
            # no DRAM home declared: the message is dropped and logged —
            # the OS would tear down the offending sender
            sp.state.setdefault("missq_dropped", []).append((kind, logical, src))
            ctrl.stats.counter(f"{ctrl.name}.missq_dropped").incr()
            continue
        n = producers[logical]
        entry = encode_rx_header(src, len(payload), flags) + payload
        yield from fw_dram_write(sp, ring.entry_addr(n), entry, fence=False)
        producers[logical] = n + 1
        # the ring's producer pointer is a DRAM word, not a message
        pointer = (producers[logical] & 0xFFFFFFFF).to_bytes(4, "big")  # repro: allow ARCH003
        yield from fw_dram_write(sp, ring.base, pointer, fence=False)
        ctrl.stats.counter(f"{ctrl.name}.missq_serviced").incr()


def install_missq_firmware(sp: "ServiceProcessor") -> None:
    """Install the miss-queue service handler."""
    sp.register("missq", missq_service)
