"""Experiment F4 — Figure 4: block-transfer **bandwidth**, approaches 1-3.

Regenerates the bandwidth-vs-size series: delivered bytes over the time
to the completion message.

Expected shape (paper §6): "Approach 1 has the worst performance,
because the data needs to be moved over the aP bus twice on each side";
"Approach 2 performs better because data moves over the aP bus only
once on each side"; "Approach 3 has the best performance in terms of
bandwidth.  The block operations can read and transmit at almost
maximum hardware speeds."
"""

import pytest

from benchmarks.conftest import record
from repro.bench import FIG_SIZES
from repro.scenarios import measure

HEADER = ["approach", "size_B", "bandwidth_MB_s", "verified"]


@pytest.mark.parametrize("approach", [1, 2, 3])
@pytest.mark.parametrize("size", FIG_SIZES)
def test_fig4_bandwidth(benchmark, approach, size):
    result = benchmark.pedantic(
        measure, args=("block_transfer",),
        kwargs={"approach": approach, "size": size}, rounds=1, iterations=1
    )
    assert result.verified
    record("Figure 4: block transfer bandwidth (MB/s)", HEADER,
           [f"A{approach}", size, result.bandwidth_mb_s, result.verified])


def test_fig4_shape(benchmark):
    """At 64 KB the paper's ordering holds: A3 > A2 > A1."""

    def series():
        return {a: measure("block_transfer", approach=a, size=65536)
                for a in (1, 2, 3)}

    results = benchmark.pedantic(series, rounds=1, iterations=1)
    assert results[3].bandwidth_mb_s > results[2].bandwidth_mb_s
    assert results[2].bandwidth_mb_s > results[1].bandwidth_mb_s
