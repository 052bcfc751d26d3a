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


from repro.bench import check_claims, fresh_machine, print_table, write_record
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
    """One release of the sparse pattern: its writer-visible ns, the wire
    bytes, the lines node 0 diffed, and whether both peers hold the
    data."""
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
        out["lines_diffed"] = region.units[0].diffs_produced

    machine.run_until(machine.spawn(0, writer), limit=1e10)
    machine.run(until=machine.now + 500_000)
    out["wire_bytes"] = sum(l.bytes_sent for l in machine.network.links)
    out["delivered"] = all(
        region.peek(n, i * 512, 8) == bytes([i + 1] * 8)
        for n in range(1, 3) for i in range(N_LINES_TOUCHED))
    return out


def _reflective():
    from repro.firmware.reflective import install_reflective  # repro: allow ARCH002 -- measures the reflective firmware layer itself

    machine = fresh_machine(3)
    for n in range(3):
        install_reflective(machine.node(n), BASE, REGION, [0, 1, 2])
    out = {}

    def writer(api):
        t0 = api.now
        yield from _sparse_writes(api, lambda off: BASE + off)
        out["writer_ns"] = api.now - t0

    machine.run_until(machine.spawn(0, writer), limit=1e10)
    machine.run(until=machine.now + 500_000)
    out["wire_bytes"] = sum(l.bytes_sent for l in machine.network.links)
    out["delivered"] = all(
        machine.node(n).dram.peek(BASE + i * 512, 8) == bytes([i + 1] * 8)
        for n in range(1, 3) for i in range(N_LINES_TOUCHED))
    return out


def run(args):
    diff, nodiff, eager = _update_release(True), _update_release(False), \
        _reflective()
    ratio = nodiff["wire_bytes"] / diff["wire_bytes"]
    page_lines = REGION // 32
    print_table("Diff-ing ablation (8 sparse 8-byte writes)", HEADER, [
        ["update + hw diff", "release ns / wire bytes",
         f"{diff['release_ns']:.0f} / {diff['wire_bytes']}"],
        ["update, whole lines", "release ns / wire bytes",
         f"{nodiff['release_ns']:.0f} / {nodiff['wire_bytes']}"],
        ["reflective (eager)", "writer-visible ns / wire bytes",
         f"{eager['writer_ns']:.0f} / {eager['wire_bytes']}"],
        ["wire reduction", "nodiff/diff", ratio],
        ["lines diffed (tracked vs page)", f"of {page_lines}",
         diff["lines_diffed"]],
    ])
    path = write_record(args.json, "diffing",
                        {"region_bytes": REGION,
                         "lines_touched": N_LINES_TOUCHED},
                        {"update_diff": diff, "update_whole_lines": nodiff,
                         "reflective": eager, "wire_reduction": ratio,
                         "page_lines": page_lines}, {})
    print(f"record: {path}")
    return check_claims({
        "update + hw diff delivered every write": diff["delivered"],
        "update, whole lines delivered every write": nodiff["delivered"],
        "reflective delivered every write": eager["delivered"],
        # 8 dirty bytes per 32-byte line: diffing should cut traffic
        # well below the whole-line variant
        "diff wire bytes < 0.7 x whole-line wire bytes":
            diff["wire_bytes"] < 0.7 * nodiff["wire_bytes"],
        # clsSRAM tracking diffs only the touched lines, not the page
        f"lines diffed == {N_LINES_TOUCHED} touched, not the page":
            diff["lines_diffed"] == N_LINES_TOUCHED,
    })


BENCH = {
    "summary": "X-diff: update-protocol diffing vs whole lines vs "
               "reflective memory",
    "flags": None,
    "run": run,
}
