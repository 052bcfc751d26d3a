"""Experiment X-prio — transmit-queue priority arbitration (§4).

"Arbitration between multiple transmit queues using a dynamically
reconfigurable system register that specifies queue priorities."

Two aP queues stream to one destination.  With equal priorities the
round-robin arbiter splits service evenly; raising one queue's priority
makes it drain strictly first whenever both hold messages.
"""

from repro.bench import check_claims, fresh_machine, print_table, write_record
from repro.mp.basic import BasicPort
from repro.mp import vdst_for
from repro.sim.store import Store  # repro: allow ARCH002 -- taps CTRL's transmit FIFO to read the arbiter's launch order

HEADER = ["configuration", "queue", "drain_order_share"]
COUNT = 24


class _LaunchTap(Store):
    """CTRL's transmit FIFO, logging each packet's queue letter as it
    enters: the order CTRL launches in (receive-side polling would
    interleave it)."""

    __slots__ = ("launched",)

    def __init__(self, fifo: Store) -> None:
        super().__init__(fifo.engine, fifo.capacity, fifo.name)
        self.launched = []

    def put(self, pkt):
        self.launched.append(pkt.payload[:1].decode())
        return super().put(pkt)


def _race(priorities):
    """Pre-fill two tx queues, then let CTRL drain them; returns CTRL's
    launch order as a string of queue letters.

    The queues are composed directly in SRAM before the arbiter gets to
    run (hardware-state setup, zero simulated time), so both queues hold
    a backlog and the arbitration policy — not the compose rate — decides
    who goes first.
    """
    from repro.niu.msgformat import MsgHeader, encode_header  # repro: allow ARCH002 -- crafts raw headers to exercise priority bits

    machine = fresh_machine(2)
    ctrl0 = machine.node(0).ctrl
    ctrl0.sysregs.write("tx_priority.0", priorities[0])
    ctrl0.sysregs.write("tx_priority.1", priorities[1])
    ra = BasicPort(machine.node(1), 0, 0)
    rb = BasicPort(machine.node(1), 1, 1)
    asram = machine.node(0).niu.asram
    for name, queue_idx, logical in (("A", 0, 0), ("B", 1, 1)):
        q = ctrl0.tx_queues[queue_idx]
        for i in range(COUNT // 2):
            payload = (f"{name}{i:02d}").encode()
            hdr = MsgHeader(vdst=vdst_for(1, logical), length=len(payload))
            asram.poke(q.slot_offset(i), encode_header(hdr) + payload)
        ctrl0.tx_producer_update(queue_idx, COUNT // 2)

    tap = ctrl0.tx_fifo = _LaunchTap(ctrl0.tx_fifo)

    def rcv(api, port, tag):
        for _ in range(COUNT // 2):
            yield from port.recv(api)

    machine.run_all([machine.spawn(1, rcv, ra, "A"),
                     machine.spawn(1, rcv, rb, "B")], limit=1e10)
    return "".join(tap.launched)


def _first_half_share(order, queue):
    return order[: COUNT // 2].count(queue) / (COUNT // 2)


def run(args):
    # flipping the "dynamically reconfigurable" register must reverse
    # the winner
    orders = {"1,1": _race((1, 1)), "5,0": _race((5, 0)),
              "0,5": _race((0, 5))}
    share_a = _first_half_share(orders["1,1"], "A")
    share_b = _first_half_share(orders["5,0"], "B")
    flipped = _first_half_share(orders["0,5"], "A")
    print_table("Transmit priority arbitration", HEADER, [
        ["equal priorities", "A share of first half", share_a],
        ["B prioritized", "B share of first half", share_b],
        ["flipped registers", "winner share", min(flipped, share_b)],
    ])
    path = write_record(args.json, "priority", {"count": COUNT},
                        {"launch_orders": orders,
                         "equal_a_share": share_a,
                         "b_prioritized_b_share": share_b,
                         "flipped_a_share": flipped}, {})
    print(f"record: {path}")
    return check_claims({
        "equal priorities: 0.25 < A share < 0.75 (round-robin)":
            0.25 < share_a < 0.75,
        "equal priorities: launch order alternates AB":
            orders["1,1"] == "AB" * (COUNT // 2),
        "B prioritized: B share > 0.8": share_b > 0.8,
        "B prioritized: every B launches before any A":
            orders["5,0"] == "B" * (COUNT // 2) + "A" * (COUNT // 2),
        "flipped registers: both winners' shares > 0.8":
            share_b > 0.8 and flipped > 0.8,
    })


BENCH = {
    "summary": "X-prio: transmit-queue priority arbitration",
    "flags": None,
    "run": run,
}
