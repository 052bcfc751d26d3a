#!/usr/bin/env python
"""The paper's §6 experiment, end to end: five block-transfer approaches.

Copies 16 KB between two nodes five different ways — aP-managed Basic
messages, sP-managed TagOn packetization, hardware block operations, and
the two optimistic S-COMA-notification variants — and prints the
latency/bandwidth/occupancy comparison the paper's Figures 3/4 draw.

Run:  python examples/block_transfer.py
"""

from repro.scenarios import measure

SIZE = 16384


def main() -> None:
    print(f"block transfer of {SIZE} bytes, node 0 -> node 1\n")
    header = (f"{'approach':9} {'notify(us)':>11} {'ready(us)':>10} "
              f"{'bw(MB/s)':>9} {'sender aP':>10} {'sender sP':>10} "
              f"{'recv sP':>8} {'ok':>3}")
    print(header)
    print("-" * len(header))
    for approach in (1, 2, 3, 4, 5):
        result = measure("block_transfer", approach=approach, size=SIZE)
        occ = result.occupancy_row()
        print(f"{approach:9} {result.notify_latency_ns / 1000:11.1f} "
              f"{result.data_ready_latency_ns / 1000:10.1f} "
              f"{result.bandwidth_mb_s:9.1f} {occ['sender_ap']:10.2f} "
              f"{occ['sender_sp']:10.2f} {occ['receiver_sp']:8.2f} "
              f"{'y' if result.verified else 'N':>3}")
    print(
        "\nExpected shape (paper §6): approach 1 is aP-bound and slowest;\n"
        "approach 2 shifts the load to the sPs; approach 3 approaches the\n"
        "hardware limit with near-zero occupancy; approaches 4/5 notify\n"
        "optimistically ~4x earlier, with 4 paying receiver-sP time that\n"
        "5's reconfigured aBIU hardware absorbs."
    )


if __name__ == "__main__":
    main()
