"""Benchmark harness utilities shared by the ``benchmarks/`` targets.

The data points themselves are registered scenarios: see
:func:`repro.scenarios.measure`.  Every bench writes one
``startv.bench`` record (:func:`write_record`); ``python -m repro.bench
golden`` hashes them all (:mod:`repro.bench.golden`).
"""

from repro.bench.harness import (
    FIG_SIZES,
    block_transfer_point,
    check_claims,
    comparable,
    fresh_machine,
    print_table,
    run_sweep,
    strip_wall,
    write_record,
)

__all__ = [
    "FIG_SIZES",
    "fresh_machine",
    "block_transfer_point",
    "check_claims",
    "run_sweep",
    "strip_wall",
    "comparable",
    "print_table",
    "write_record",
]
