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


from repro import default_config
from repro.bench import check_claims, fresh_machine, print_table, write_record
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


def _express_with_extra_handler():
    """Express one-way latency (10 round trips) with a reflective-memory
    layer-1 handler installed on both nodes."""
    runner = ScenarioMachine(default_config(n_nodes=2),
                             scenario("express", repeats=10))
    for n in range(2):
        install_reflective(runner.machine.node(n), 0x40000, 4096, [0, 1])
    return runner.run().results[0]


def run(args):
    stores = _store_costs()
    overhead = stores["express"] - stores["plain"]
    latency = measure("express", repeats=20)
    # the same packet's unavoidable network time: serialization on two
    # links (node->switch->node) + switch + wire latencies
    ncfg = default_config(n_nodes=2).network
    wire = 2 * (16 * ncfg.ns_per_byte + ncfg.wire_latency_ns) \
        + ncfg.switch_latency_ns
    base = measure("express", repeats=10)
    with_handler = _express_with_extra_handler()
    print_table("Layering overhead", HEADER, [
        ["uncached store to DRAM", "aP-visible", stores["plain"]],
        ["Express send (layer-1 handler)", "aP-visible", stores["express"]],
        ["layer-1 decode overhead", "delta", overhead],
        ["Express one-way", "total", latency],
        ["  of which raw network", "flight", wire],
        ["  of which NIU layers + polling", "overhead", latency - wire],
        ["Express one-way (10 round trips)", "one-way", base],
        ["Express with extra handler installed", "one-way", with_handler],
    ])
    path = write_record(args.json, "layering", {},
                        {"store_ns": stores, "decode_overhead_ns": overhead,
                         "express_one_way_ns": latency, "wire_ns": wire,
                         "layers_ns": latency - wire,
                         "express_10_ns": base,
                         "express_10_extra_handler_ns": with_handler}, {})
    print(f"record: {path}")
    return check_claims({
        # "very little or no additional overhead": within a few bus
        # cycles; the Express path can even be CHEAPER than a DRAM store
        # because the capture FIFO acknowledges before the DRAM access
        "layer-1 decode overhead < 4 x 15.2 ns (four 66 MHz bus cycles)":
            overhead < 4 * 15.2,
        # the full four-layer stack costs less than ~3x the raw flight
        "Express one-way < raw network flight + 700 ns":
            latency < wire + 700,
        # handlers are per-region: an extra one must not slow Express
        "Express with an extra handler < 1.05 x without":
            with_handler < 1.05 * base,
    })


BENCH = {
    "summary": "X-layers: layer-1 handler cost and the four-layer "
               "latency budget",
    "flags": None,
    "run": run,
}
