"""Experiment X-diff — the §5 diff-ing hardware ablation.

"Diff-ing is common to software-based shared memory implementations
although it is expensive both because comparison is usually done for an
entire page, and because it is extra overhead.  StarT-Voyager's clsSRAM
can be used to track modifications at the cache-line granularity, thus
reducing the amount of diff-ing required."

The ablation compares three ways to propagate the same sparse write
pattern (8 dirty bytes in each of 8 lines spread over a 4 KB region):

* **update+diff** — line-granularity dirty tracking + hardware diff
  (only changed words travel, one release);
* **update, no diff** — same tracking, whole dirty lines travel (what a
  diff-less TxU would send);
* **reflective** — every store propagates eagerly (no batching at all);
* plus the software-DSM strawman the paper mentions: diffing the entire
  page regardless of what changed.
"""


from benchmarks.conftest import record
from repro.bench import fresh_machine
from repro.mp.basic import BasicPort
from repro.shm.update import UpdateRegion

HEADER = ["scheme", "metric", "value"]
BASE = 0x50000
REGION = 4096
N_LINES_TOUCHED = 8


def _sparse_writes(api, region_addr):
    """8 bytes written into each of 8 spread-out lines."""
    for i in range(N_LINES_TOUCHED):
        yield from api.store(region_addr(i * 512), bytes([i + 1] * 8))


def _update_release(diff: bool):
    machine = fresh_machine(3)
    region = UpdateRegion(machine, base=BASE, size=REGION)
    if not diff:
        # a diff-less TxU: pre-poison the twins so every word compares
        # unequal and whole lines travel
        for unit in region.units.values():
            for line in range(unit.n_lines):
                unit._twins[line] = b"\xff" * unit.line_bytes
    port = BasicPort(machine.node(0), 0, 0)
    out = {}

    def writer(api):
        yield from _sparse_writes(api, region.addr)
        t0 = api.now
        yield from region.release(api, port, notify_queue=0)
        out["release_ns"] = api.now - t0

    machine.run_until(machine.spawn(0, writer), limit=1e10)
    machine.run(until=machine.now + 500_000)
    wire = sum(l.bytes_sent for l in machine.network.links)
    for n in range(1, 3):
        for i in range(N_LINES_TOUCHED):
            assert region.peek(n, i * 512, 8) == bytes([i + 1] * 8)
    return out["release_ns"], wire


def _reflective():
    from repro.firmware.reflective import install_reflective  # repro: allow ARCH002 -- measures the reflective firmware layer itself

    machine = fresh_machine(3)
    for n in range(3):
        install_reflective(machine.node(n), BASE, REGION, [0, 1, 2])
    out = {}

    def writer(api):
        t0 = api.now
        yield from _sparse_writes(api, lambda off: BASE + off)
        out["ns"] = api.now - t0

    machine.run_until(machine.spawn(0, writer), limit=1e10)
    machine.run(until=machine.now + 500_000)
    wire = sum(l.bytes_sent for l in machine.network.links)
    for n in range(1, 3):
        for i in range(N_LINES_TOUCHED):
            assert machine.node(n).dram.peek(BASE + i * 512, 8) == \
                bytes([i + 1] * 8)
    return out["ns"], wire


def test_update_with_diff(benchmark):
    ns, wire = benchmark.pedantic(_update_release, args=(True,), rounds=1,
                                  iterations=1)
    record("Diff-ing ablation (8 sparse 8-byte writes)", HEADER,
           ["update + hw diff", "release ns / wire bytes", f"{ns:.0f} / {wire}"])


def test_update_without_diff(benchmark):
    ns, wire = benchmark.pedantic(_update_release, args=(False,), rounds=1,
                                  iterations=1)
    record("Diff-ing ablation (8 sparse 8-byte writes)", HEADER,
           ["update, whole lines", "release ns / wire bytes", f"{ns:.0f} / {wire}"])


def test_reflective_eager(benchmark):
    ns, wire = benchmark.pedantic(_reflective, rounds=1, iterations=1)
    record("Diff-ing ablation (8 sparse 8-byte writes)", HEADER,
           ["reflective (eager)", "writer-visible ns / wire bytes",
            f"{ns:.0f} / {wire}"])


def test_diff_reduces_wire_traffic(benchmark):
    def run():
        _ns_d, wire_diff = _update_release(True)
        _ns_n, wire_nodiff = _update_release(False)
        return wire_diff, wire_nodiff

    wire_diff, wire_nodiff = benchmark.pedantic(run, rounds=1, iterations=1)
    record("Diff-ing ablation (8 sparse 8-byte writes)", HEADER,
           ["wire reduction", "nodiff/diff", wire_nodiff / wire_diff])
    # 8 dirty bytes per 32-byte line: diffing should cut traffic well
    # below the whole-line variant
    assert wire_diff < 0.7 * wire_nodiff


def test_line_tracking_beats_page_diffing(benchmark):
    """The paper's point about clsSRAM tracking: diff only the 8 touched
    lines, not the whole page (128 lines)."""

    def run():
        machine = fresh_machine(3)
        region = UpdateRegion(machine, base=BASE, size=REGION)
        port = BasicPort(machine.node(0), 0, 0)
        compared = {}

        def writer(api):
            yield from _sparse_writes(api, region.addr)
            yield from region.release(api, port, notify_queue=0)
            compared["lines"] = region.units[0].diffs_produced

        machine.run_until(machine.spawn(0, writer), limit=1e10)
        return compared["lines"]

    lines_diffed = benchmark.pedantic(run, rounds=1, iterations=1)
    page_lines = REGION // 32
    record("Diff-ing ablation (8 sparse 8-byte writes)", HEADER,
           ["lines diffed (tracked vs page)", f"of {page_lines}",
            lines_diffed])
    assert lines_diffed == N_LINES_TOUCHED  # not the whole page
