"""Experiment X-layers — §2's claim that layering costs little.

"Adding layers introduces very little or no additional overhead since
most stages can be pipelined and very few additional stages are
required."

Measured: the aP-visible cost of an Express send (an uncached store
decoded by the layer-1 handler, with composition and launch pushed to
the background) versus a plain uncached store served by DRAM — the
handler indirection must cost at most a couple of bus cycles.  Also the
end-to-end layer budget: the one-way Express latency decomposed against
the raw network flight time of the same packet.
"""


from benchmarks.conftest import record
from repro import default_config
from repro.bench import fresh_machine
from repro.firmware.reflective import install_reflective  # repro: allow ARCH002 -- compares firmware layers below the public API
from repro.mp.express import ExpressPort
from repro.mp import EXPRESS_RX_LOGICAL, vdst_for
from repro.scenarios import ScenarioMachine, measure, scenario

HEADER = ["path", "metric", "ns"]


def _store_costs():
    """aP-visible cost of one uncached store: DRAM-backed (layer-0 only)
    vs Express window (through the layer-1 handler)."""
    machine = fresh_machine(2)
    # an uncached DRAM window without any handler: carve one
    machine.node(0).address_map.carve("plain", 0x48000, 0x1000,
                                      __import__("repro.mem.address",
                                                 fromlist=["AccessMode"]
                                                 ).AccessMode.UNCACHED)
    express = ExpressPort(machine.node(0))
    out = {}

    def prog(api):
        t0 = api.now
        for _ in range(10):
            yield from api.store(0x48000, b"1234")
        out["plain"] = (api.now - t0) / 10
        t0 = api.now
        for _ in range(10):
            yield from express.send(api, vdst_for(1, EXPRESS_RX_LOGICAL),
                                    b"abcde")
        out["express"] = (api.now - t0) / 10

    machine.run_until(machine.spawn(0, prog), limit=1e9)
    return out


def test_handler_indirection_cost(benchmark):
    out = benchmark.pedantic(_store_costs, rounds=1, iterations=1)
    record("Layering overhead", HEADER,
           ["uncached store to DRAM", "aP-visible", out["plain"]])
    record("Layering overhead", HEADER,
           ["Express send (layer-1 handler)", "aP-visible", out["express"]])
    overhead = out["express"] - out["plain"]
    record("Layering overhead", HEADER,
           ["layer-1 decode overhead", "delta", overhead])
    # "very little or no additional overhead": within a few bus cycles;
    # the Express path can even be CHEAPER than a DRAM store because the
    # capture FIFO acknowledges before the DRAM access time
    assert overhead < 4 * 15.2  # four 66 MHz bus cycles


def test_end_to_end_layer_budget(benchmark):
    """One-way Express latency vs the raw wire time of its packet."""

    def run():
        latency = measure("express", repeats=20)
        # the same packet's unavoidable network time: serialization on two
        # links (node->switch->node) + switch + wire latencies
        machine = fresh_machine(2)
        ncfg = machine.config.network
        wire = 2 * (16 * ncfg.ns_per_byte + ncfg.wire_latency_ns) \
            + ncfg.switch_latency_ns
        return latency, wire

    latency, wire = benchmark.pedantic(run, rounds=1, iterations=1)
    record("Layering overhead", HEADER,
           ["Express one-way", "total", latency])
    record("Layering overhead", HEADER,
           ["  of which raw network", "flight", wire])
    record("Layering overhead", HEADER,
           ["  of which NIU layers + polling", "overhead", latency - wire])
    # the full four-layer stack costs less than ~3x the raw flight time
    assert latency < wire + 700


def test_new_mechanism_does_not_tax_existing(benchmark):
    """Installing an extra layer-1 handler (reflective memory) must not
    slow unrelated Express traffic — handlers are per-region."""

    def run():
        base = measure("express", repeats=10)
        runner = ScenarioMachine(default_config(n_nodes=2),
                                 scenario("express", repeats=10))
        for n in range(2):
            install_reflective(runner.machine.node(n), 0x40000, 4096, [0, 1])
        return base, runner.run().results[0]

    base, with_handler = benchmark.pedantic(run, rounds=1, iterations=1)
    record("Layering overhead", HEADER,
           ["Express with extra handler installed", "one-way",
            with_handler])
    assert with_handler < 1.05 * base
