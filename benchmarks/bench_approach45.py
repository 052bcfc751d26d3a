"""Experiment X-A45 — approaches 4 and 5 (the paper's "under
investigation" variants, for which it had no numbers).

Optimistic early notification over S-COMA state: the receiver is told
"done" after ~25% of the data; touching unarrived lines stalls on
clsSRAM retries until the data lands.  Approach 4 flips line states in
receiver firmware (per-chunk sP wakeups); approach 5's reconfigured
aBIU does it in hardware.

Measured here: notification latency (should be ~4x earlier than A3),
consume-complete latency (no worse than A3), and the receiver-sP cost
that separates 4 from 5.
"""

import pytest

from benchmarks.conftest import record
from repro.scenarios import measure

HEADER = ["approach", "size_B", "notify_us", "consume_us", "recv_sP"]
SIZES = [4096, 16384, 65536]


@pytest.mark.parametrize("approach", [3, 4, 5])
@pytest.mark.parametrize("size", SIZES)
def test_a45_rows(benchmark, approach, size):
    result = benchmark.pedantic(
        measure, args=("block_transfer",),
        kwargs={"approach": approach, "size": size},
                                rounds=1, iterations=1)
    assert result.verified
    occ = result.occupancy_row()
    record("Approaches 4/5: optimistic notification vs hardware DMA",
           HEADER,
           [f"A{approach}", size, result.notify_latency_ns / 1000.0,
            result.data_ready_latency_ns / 1000.0, occ["receiver_sp"]])


def test_a45_claims(benchmark):
    def run():
        return {a: measure("block_transfer", approach=a, size=16384)
                for a in (3, 4, 5)}

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    # notification arrives far earlier than full completion
    assert r[4].notify_latency_ns < 0.55 * r[3].notify_latency_ns
    assert r[5].notify_latency_ns < 0.55 * r[3].notify_latency_ns
    # consuming through retries costs at most ~10% over waiting it out
    assert r[4].data_ready_latency_ns <= 1.10 * r[3].data_ready_latency_ns
    assert r[5].data_ready_latency_ns <= 1.10 * r[3].data_ready_latency_ns
    # approach 4 pays receiver-sP time; approach 5's hardware absorbs it
    assert r[4].occupancy_row()["receiver_sp"] > \
        5 * r[5].occupancy_row()["receiver_sp"]
