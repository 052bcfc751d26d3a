"""Experiment T-occ — the §6 occupancy claims as a table.

The paper discusses per-approach processor occupancy qualitatively:

* A1 — the sender aP carries everything ("the aP incurs overheads to
  copy the data"); the sPs are idle;
* A2 — "shifts the overhead of managing the transfer from the aPs to
  the sPs ... leading to lower sP occupancy than aP occupancy under the
  first approach", and "a significant impact on sP occupancy";
* A3 — "occupancy of both the aP and sP is minimal to nil".

This bench regenerates that table for an 8 KB transfer and asserts each
claim.
"""

import pytest

from benchmarks.conftest import record
from repro.scenarios import measure

SIZE = 8192
HEADER = ["approach", "sender_aP", "sender_sP", "recv_aP", "recv_sP"]


@pytest.fixture(scope="module")
def results():
    return {a: measure("block_transfer", approach=a, size=SIZE)
            for a in (1, 2, 3)}


@pytest.mark.parametrize("approach", [1, 2, 3])
def test_occupancy_rows(benchmark, approach):
    result = benchmark.pedantic(
        measure, args=("block_transfer",),
        kwargs={"approach": approach, "size": SIZE},
                                rounds=1, iterations=1)
    occ = result.occupancy_row()
    record("Occupancy during an 8 KB transfer (busy fraction)", HEADER,
           [f"A{approach}", occ["sender_ap"], occ["sender_sp"],
            occ["receiver_ap"], occ["receiver_sp"]])


def test_occupancy_claims(benchmark):
    def run():
        return {a: measure("block_transfer", approach=a, size=SIZE)
                for a in (1, 2, 3)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    occ1 = results[1].occupancy_row()
    occ2 = results[2].occupancy_row()
    occ3 = results[3].occupancy_row()
    # A1: aP-bound
    assert occ1["sender_ap"] > 0.5 and occ1["sender_sp"] < 0.05
    # A2: load moved to the sPs, and below what A1's aP needed
    assert occ2["sender_ap"] < 0.05
    assert occ2["sender_sp"] > 0.2
    assert occ2["sender_sp"] < occ1["sender_ap"]
    # A3: minimal to nil
    assert occ3["sender_ap"] < 0.05 and occ3["sender_sp"] < 0.10
    assert occ3["receiver_sp"] < 0.05
