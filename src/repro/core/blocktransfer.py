"""The §6 experiments: five implementations of block memory transfer.

"The experiments investigate different ways of implementing block memory
transfer, i.e. copying data from contiguous memory locations in one site
to contiguous locations in another site.  Once the transfer is complete,
a message is put into the receiving job's regular message queue; the
receiver, upon reading this message, can then begin using the
transferred data."

========  =============================================================
approach  implementation (who moves the data)
========  =============================================================
1         sender aP reads/packetizes/sends Basic messages; receiver aP
          copies payloads into memory — data crosses each aP bus twice
2         aPs only file a request; the sPs drive the transfer through
          command-queue DRAM↔SRAM moves and TagOn pickups — one bus
          crossing per side, heavy sP occupancy
3         hardware block-operation units do read/packetize/send and the
          remote command queue does receive/write — both processors idle
4         approach 3 + optimistic early notification at ~25% of the
          data; receiver sP arms clsSRAM retry states and flips lines
          readable as chunks land (firmware per chunk)
5         approach 4 with the aBIU reconfigured to update clsSRAM in
          hardware as data lands; arming uses the block machinery
========  =============================================================

Latency is measured request-to-consumable: from the sender starting work
to the receiver having *touched every byte* of the destination (for 1-3
the completion message precedes the touch; for 4-5 the touch itself may
stall on S-COMA retries — that stall is the experiment).  The harness
also reports notification latency and per-processor occupancy, which §6
discusses qualitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator

from repro.common.errors import ProgramError
from repro.common.wire import BT45_ARM
from repro.core.machine import StarTVoyager
from repro.mp.basic import BasicPort
from repro.mp.dma import DmaNotifier, dma_write
from repro.niu.niu import NOTIFY_QUEUE, SP_SERVICE_QUEUE, vdst_for

#: Approach-1 payload per Basic message: a 4-byte offset word plus two
#: cache lines of data (64 B) — 68 <= 88.
A1_CHUNK = 64


@dataclass
class TransferResult:
    """Everything one block-transfer run measures."""

    approach: int
    size: int
    #: sender request start -> receiver notified (completion message read).
    notify_latency_ns: float
    #: sender request start -> receiver has touched every byte.
    data_ready_latency_ns: float
    #: busy-time deltas over the transfer, per processor.
    sender_ap_busy_ns: float = 0.0
    receiver_ap_busy_ns: float = 0.0
    sender_sp_busy_ns: float = 0.0
    receiver_sp_busy_ns: float = 0.0
    verified: bool = False

    @property
    def bandwidth_mb_s(self) -> float:
        """Transfer bandwidth (decimal MB/s) to the completion message.

        This is the Figure-4 metric: data delivered over the time until
        the receiver is told the transfer is done.  (For approaches 4/5
        the notification is optimistic, so compare those on
        :attr:`data_ready_latency_ns` instead.)
        """
        return (self.size / self.notify_latency_ns) * 1000.0

    def occupancy_row(self) -> Dict[str, float]:
        """Occupancy fractions over the transfer window."""
        w = self.data_ready_latency_ns
        return {
            "sender_ap": self.sender_ap_busy_ns / w if w else 0.0,
            "sender_sp": self.sender_sp_busy_ns / w if w else 0.0,
            "receiver_ap": self.receiver_ap_busy_ns / w if w else 0.0,
            "receiver_sp": self.receiver_sp_busy_ns / w if w else 0.0,
        }


class BlockTransferExperiment:
    """Runs one approach at one size on a fresh two-node machine."""

    def __init__(self, machine: StarTVoyager, src: int = 0, dst: int = 1) -> None:
        if machine.config.n_nodes < 2:
            raise ProgramError("block transfer needs at least two nodes")
        self.machine = machine
        self.src = src
        self.dst = dst
        self.src_node = machine.node(src)
        self.dst_node = machine.node(dst)
        #: source data in sender DRAM, destination buffer in receiver DRAM.
        self.src_addr = 0x10000
        self.dst_addr = 0x20000
        self.sender_port = BasicPort(self.src_node, tx_index=0, rx_logical=0)
        self.receiver_port = BasicPort(self.dst_node, tx_index=0, rx_logical=0)
        self.notifier = DmaNotifier(self.dst_node)

    # -- shared pieces ------------------------------------------------------

    def _prepare(self, size: int, approach: int) -> bytes:
        pattern = bytes((7 * i + approach) & 0xFF for i in range(size))
        self.src_node.dram.poke(self.src_addr, pattern)
        self.dst_node.dram.poke(self.dst_addr, bytes(size))
        return pattern

    def _dst_for(self, approach: int, size: int) -> int:
        """Approaches 4/5 land in the clsSRAM-covered S-COMA window."""
        if approach in (4, 5):
            base = self.dst_node.scoma_base
            if size > self.dst_node.scoma_bytes:
                raise ProgramError("transfer exceeds the S-COMA window")
            return base
        return self.dst_addr

    def _snapshot_busy(self) -> Dict[str, float]:
        return {
            "s_ap": self.src_node.ap.busy.current(),
            "s_sp": self.src_node.sp.busy.current(),
            "r_ap": self.dst_node.ap.busy.current(),
            "r_sp": self.dst_node.sp.busy.current(),
        }

    def run(self, approach: int, size: int) -> TransferResult:
        """Execute one transfer and return its measurements."""
        if approach not in (1, 2, 3, 4, 5):
            raise ProgramError(f"no approach {approach}")
        pattern = self._prepare(size, approach)
        dst_addr = self._dst_for(approach, size)
        before = self._snapshot_busy()
        t0 = self.machine.now
        marks: Dict[str, float] = {}

        if approach == 1:
            sender = self.machine.spawn(
                self.src, self._a1_sender, size, name="bt.a1.send")
            receiver = self.machine.spawn(
                self.dst, self._a1_receiver, size, marks, name="bt.a1.recv")
        elif approach == 2:
            sender = self.machine.spawn(
                self.src, self._request_sender, size, dst_addr, 2,
                name="bt.a2.send")
            receiver = self.machine.spawn(
                self.dst, self._notify_receiver, size, dst_addr, marks,
                name="bt.a2.recv")
        elif approach == 3:
            sender = self.machine.spawn(
                self.src, self._request_sender, size, dst_addr, 3,
                name="bt.a3.send")
            receiver = self.machine.spawn(
                self.dst, self._notify_receiver, size, dst_addr, marks,
                name="bt.a3.recv")
        else:
            sender = self.machine.spawn(
                self.src, self._armed_sender, size, dst_addr, approach,
                name=f"bt.a{approach}.send")
            receiver = self.machine.spawn(
                self.dst, self._armed_receiver, size, dst_addr, approach,
                marks, name=f"bt.a{approach}.recv")

        self.machine.run_all([sender, receiver])
        after = self._snapshot_busy()
        got = self.dst_node.peek_coherent(dst_addr, size)
        return TransferResult(
            approach=approach,
            size=size,
            notify_latency_ns=marks.get("notified", self.machine.now) - t0,
            data_ready_latency_ns=marks.get("consumed", self.machine.now) - t0,
            sender_ap_busy_ns=after["s_ap"] - before["s_ap"],
            sender_sp_busy_ns=after["s_sp"] - before["s_sp"],
            receiver_ap_busy_ns=after["r_ap"] - before["r_ap"],
            receiver_sp_busy_ns=after["r_sp"] - before["r_sp"],
            verified=(got == pattern),
        )

    # -- approach 1: aP does everything -------------------------------------------

    def _a1_sender(self, api, size: int) -> Generator:
        port = self.sender_port
        dst_vdst = vdst_for(self.dst, port.rx_logical)
        offset = 0
        while offset < size:
            chunk = min(A1_CHUNK, size - offset)
            data = yield from api.load(self.src_addr + offset, chunk)
            yield from api.compute(20)  # packetization bookkeeping
            payload = offset.to_bytes(4, "big") + data
            yield from port.send(api, dst_vdst, payload)
            offset += chunk

    def _a1_receiver(self, api, size: int, marks: Dict[str, float]
                     ) -> Generator:
        port = self.receiver_port
        received = 0
        while received < size:
            _src, payload = yield from port.recv(api)
            offset = int.from_bytes(payload[:4], "big")
            # zero-copy: the data rides as a view of the received payload
            # down to the aP store (the landing write), which pins it
            data = memoryview(payload)[4:]
            yield from api.store(self.dst_addr + offset, data)
            yield from api.compute(20)
            received += len(data)
        # completion: the receiver has placed every byte
        marks["notified"] = api.now
        # the consume pass mirrors approaches 2-5; it mostly hits the L2
        # since this aP just wrote the data
        yield from self._consume(api, self.dst_addr, size)
        marks["consumed"] = api.now

    # -- approaches 2/3: request + notification -----------------------------------------

    def _request_sender(self, api, size: int, dst_addr: int, mode: int
                        ) -> Generator:
        yield from dma_write(api, self.sender_port, self.dst,
                             self.src_addr, dst_addr, size,
                             notify_queue=NOTIFY_QUEUE, mode=mode)

    def _notify_receiver(self, api, size: int, dst_addr: int,
                         marks: Dict[str, float]) -> Generator:
        yield from self.notifier.wait(api)
        marks["notified"] = api.now
        yield from self._consume(api, dst_addr, size)
        marks["consumed"] = api.now

    def _consume(self, api, dst_addr: int, size: int) -> Generator:
        """Touch every byte, two lines at a time (the §6 'begin using')."""
        offset = 0
        while offset < size:
            chunk = min(64, size - offset)
            yield from api.load(dst_addr + offset, chunk)
            offset += chunk

    # -- approaches 4/5: optimistic notification over S-COMA state ------------------------

    def _armed_sender(self, api, size: int, dst_addr: int, mode: int
                      ) -> Generator:
        # wait for the receiver's "armed and ready" message
        yield from self.sender_port.recv(api)
        yield from dma_write(api, self.sender_port, self.dst,
                             self.src_addr, dst_addr, size,
                             notify_queue=NOTIFY_QUEUE, mode=mode)

    def _armed_receiver(self, api, size: int, dst_addr: int, mode: int,
                        marks: Dict[str, float]) -> Generator:
        # arm the destination lines (firmware for 4, block machinery for 5)
        yield from self.receiver_port.send(
            api, vdst_for(self.dst, SP_SERVICE_QUEUE),
            BT45_ARM.pack(mode, dst_addr, size),
        )
        yield from api.compute(50)
        # tell the sender to start
        yield from self.receiver_port.send(
            api, vdst_for(self.src, self.sender_port.rx_logical), b"go")
        # early notification arrives after ~25% of the data
        yield from self.notifier.wait(api)
        marks["notified"] = api.now
        # start consuming immediately: reads of unarrived lines retry
        yield from self._consume(api, dst_addr, size)
        marks["consumed"] = api.now
