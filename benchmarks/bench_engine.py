"""Experiment X-engine — simulation-kernel throughput microbenchmark.

Everything else in ``benchmarks/`` measures *simulated* time; this file
measures the **simulator itself**: how many scheduled events the kernel
executes per wall-clock second, and how many payload bytes the full
machine moves per wall-clock second.  It is the perf trajectory for the
fast-path kernel work — run it before and after touching ``repro.sim``
and compare.

Six workloads:

* ``timeout_storm``   — the pure kernel fast path: N processes doing
  nothing but ``yield engine.timeout(d)``.  No machine, no payload;
  this isolates heap + event + process-resume overhead.
* ``sleep_storm``     — the same loop sleeping with ``yield d`` (a float):
  the same scheduled items and executed count, without an Event per
  sleep — the form every modeled latency in the simulator uses.
* ``store_traffic``   — producer/consumer pairs through bounded
  :class:`~repro.sim.store.Store`\\ s: the put/get/callback path every
  hardware FIFO in the model rides.
* ``alltoall8``       — an 8-node machine where every node streams
  Basic messages to every other node: the end-to-end events/sec and
  bytes-moved/sec of the real data plane (SRAM, CTRL, network).
* ``basic_poll``      — one aP spinning in ``BasicPort.recv`` on an empty
  receive queue: the uncached-load path (aP -> bus -> aBIU pointer
  window -> SRAM shadow) that dominates the collectives workloads.
  Reports scheduled items per poll, a simulated count that must stay
  exactly ``POLL_ITEMS`` (the CLI run fails otherwise), and wall us
  per poll.
* ``basic_poll64``    — the same empty spin on every node of a 64-node
  machine.  The 2-node poll runs on a near-empty heap and a tiny
  working set; at 64 nodes every sleep sifts through a heap of ~64
  items and every node's bus, aBIU and SRAM objects are live, as in
  ``allreduce_nic64``.

CLI (the CI smoke job runs the first)::

    python -m repro.bench engine --quick
    python -m repro.bench engine --json BENCH_engine.json --record-as post_x

Each run adds its results, under its ``--record-as`` label, to the
``wall.runs`` history of the record at ``--json`` (the committed
trajectory is ``BENCH_engine.json``); the record's ``sim`` holds this
run's simulated counts.  When both ``pre_refactor`` and
``post_refactor`` labels are present the ``wall`` block gains a
``speedup_events_per_s`` field.
"""

import json
import os
import time

from repro.bench import check_claims, print_table, write_record
from repro.mp.basic import BasicPort
from repro.mp import vdst_for
from repro.sim.engine import Engine  # repro: allow ARCH002 -- event-kernel microbenchmark drives the raw engine
from repro.sim.store import Store  # repro: allow ARCH002 -- event-kernel microbenchmark drives the raw engine

#: the six workloads, in table order.
WORKLOADS = ("timeout_storm", "sleep_storm", "store_traffic", "alltoall8",
             "basic_poll", "basic_poll64")

#: the wall-clock fields of a workload's results; the rest are simulated.
WALL_FIELDS = ("wall_s", "events_per_s", "ns_per_event", "bytes_moved_per_s",
               "us_per_poll")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def timeout_storm(n_procs: int = 50, steps: int = 2000) -> dict:
    """Pure-kernel timeout churn; returns events/sec and ns/event."""
    engine = Engine()

    def proc(i):
        delay = 1.0 + (i % 7)
        for _ in range(steps):
            yield engine.timeout(delay)

    return _run_storm(engine, proc, n_procs)


def sleep_storm(n_procs: int = 50, steps: int = 2000) -> dict:
    """:func:`timeout_storm` sleeping on floats instead of Timeouts."""
    engine = Engine()

    def proc(i):
        delay = 1.0 + (i % 7)
        for _ in range(steps):
            yield delay  # a float: a sleep, no Event

    return _run_storm(engine, proc, n_procs)


def _run_storm(engine, proc, n_procs: int) -> dict:
    for i in range(n_procs):
        engine.process(proc(i), name=f"storm{i}")
    t0 = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - t0
    return {
        "events": engine.events_executed,
        "wall_s": wall,
        "events_per_s": engine.events_executed / wall,
        "ns_per_event": wall / engine.events_executed * 1e9,
    }


def store_traffic(n_pairs: int = 10, items: int = 2000) -> dict:
    """Bounded-store producer/consumer churn; returns events/sec."""
    engine = Engine()

    def producer(store):
        for i in range(items):
            yield store.put(i)
            yield engine.timeout(1.0)

    def consumer(store):
        for _ in range(items):
            yield store.get()
            yield engine.timeout(1.0)

    for p in range(n_pairs):
        store = Store(engine, capacity=4, name=f"bench{p}")
        engine.process(producer(store), name=f"prod{p}")
        engine.process(consumer(store), name=f"cons{p}")
    t0 = time.perf_counter()
    engine.run()
    wall = time.perf_counter() - t0
    return {
        "events": engine.events_executed,
        "wall_s": wall,
        "events_per_s": engine.events_executed / wall,
        "ns_per_event": wall / engine.events_executed * 1e9,
    }


def alltoall8(n_nodes: int = 8, msgs_per_peer: int = 2,
              payload_bytes: int = 64) -> dict:
    """Full-machine all-to-all Basic-message exchange.

    Every node sends ``msgs_per_peer`` messages of ``payload_bytes`` to
    every other node and receives everything addressed to it.  Returns
    kernel events/sec plus the data-plane figure: payload bytes moved
    end-to-end (DRAM-less Basic path: aP -> SRAM -> network -> SRAM ->
    aP) per wall second.
    """
    import repro

    machine = repro.StarTVoyager(repro.default_config(n_nodes=n_nodes))
    ports = [BasicPort(machine.node(n), 0, 0) for n in range(n_nodes)]
    payload = bytes(payload_bytes)
    incoming = (n_nodes - 1) * msgs_per_peer

    def worker(api, rank):
        for round_no in range(msgs_per_peer):
            for step in range(1, n_nodes):
                dst = (rank + step) % n_nodes
                yield from ports[rank].send(api, vdst_for(dst, 0), payload)
        for _ in range(incoming):
            yield from ports[rank].recv(api)

    procs = [machine.spawn(n, worker, n) for n in range(n_nodes)]
    t0 = time.perf_counter()
    machine.run_all(procs, limit=1e12)
    wall = time.perf_counter() - t0
    total_payload = n_nodes * incoming * payload_bytes
    events = machine.engine.events_executed
    return {
        "n_nodes": n_nodes,
        "messages": n_nodes * incoming,
        "payload_bytes_total": total_payload,
        "events": events,
        "wall_s": wall,
        "events_per_s": events / wall,
        "ns_per_event": wall / events * 1e9,
        "bytes_moved_per_s": total_payload / wall,
        "sim_ns": machine.now,
    }


#: scheduled items one empty poll executes: the pointer load's four
#: timed phases (address tenure, snoop window, CTRL op, SRAM shadow
#: read) and the polling loop's instruction overhead, each a float
#: sleep: a SLEEP item plus its WAKE (inlined or pushed).
POLL_ITEMS = 10


def basic_poll(sim_ns: float = 2e6, warmup_ns: float = 1e4,
               n_nodes: int = 2, spinners: int = 1) -> dict:
    """``spinners`` aPs (nodes 0, 1, ...) of an ``n_nodes`` machine each
    spinning on an empty Basic receive queue for ``sim_ns``.

    Timing starts after ``warmup_ns`` of spinning, so machine assembly
    and the first polls' lazy set-up stay out of the per-poll figure.
    """
    import repro

    machine = repro.StarTVoyager(repro.default_config(n_nodes=n_nodes))
    ports = [BasicPort(machine.node(n), 0, 0) for n in range(spinners)]
    aps = [machine.node(n).ap for n in range(spinners)]

    def spinner(api, port):
        yield from port.recv(api)  # nothing is ever sent

    for n, port in enumerate(ports):
        machine.spawn(n, spinner, port)
    machine.run(until=warmup_ns)
    engine = machine.engine
    items0 = engine.events_executed
    polls0 = sum(ap.loads for ap in aps)
    t0 = time.perf_counter()
    machine.run(until=warmup_ns + sim_ns)
    wall = time.perf_counter() - t0
    polls = sum(ap.loads for ap in aps) - polls0
    items = engine.events_executed - items0
    return {
        "n_nodes": n_nodes,
        "spinners": spinners,
        "sim_ns": sim_ns,
        "polls": polls,
        "events": items,
        "wall_s": wall,
        "events_per_s": items / wall,
        "ns_per_event": wall / items * 1e9,
        "items_per_poll": items / polls,
        "us_per_poll": wall / polls * 1e6,
    }


def basic_poll64(sim_ns: float = 1e5, warmup_ns: float = 1e4) -> dict:
    """:func:`basic_poll` with one spinner on each of 64 nodes."""
    return basic_poll(sim_ns, warmup_ns, n_nodes=64, spinners=64)


def measure(quick: bool = False, repeats: int = 3) -> dict:
    """Run the six workloads (best-of-``repeats`` wall clock)."""
    if quick:
        repeats = 1
        storm_args = dict(n_procs=20, steps=400)
        store_args = dict(n_pairs=5, items=400)
        a2a_args = dict(msgs_per_peer=1)
        poll_args = dict(sim_ns=2e5)
        poll64_args = dict(sim_ns=1e4)
    else:
        storm_args = {}
        store_args = {}
        a2a_args = {}
        poll_args = {}
        poll64_args = {}

    def best(fn, **kwargs):
        runs = [fn(**kwargs) for _ in range(repeats)]
        return max(runs, key=lambda r: r["events_per_s"])

    storm = best(timeout_storm, **storm_args)
    sleep = best(sleep_storm, **storm_args)
    store = best(store_traffic, **store_args)
    a2a = best(alltoall8, **a2a_args)
    poll = best(basic_poll, **poll_args)
    poll64 = best(basic_poll64, **poll64_args)
    return {
        "timeout_storm": storm,
        "sleep_storm": sleep,
        "store_traffic": store,
        "alltoall8": a2a,
        "basic_poll": poll,
        "basic_poll64": poll64,
        #: the headline gauge: pure-kernel event throughput.
        "events_per_s": storm["events_per_s"],
        "bytes_moved_per_s": a2a["bytes_moved_per_s"],
        "quick": quick,
    }


# ----------------------------------------------------------------------
# direct CLI
# ----------------------------------------------------------------------

def _history(path: str) -> dict:
    """The ``wall`` block of the record already at ``path`` (empty when
    there is none): the trajectory a new run is added to."""
    if not os.path.exists(path):
        return {"runs": {}}
    with open(path) as fh:
        return json.load(fh)["wall"]


def _flags(parser):
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, single repeat (CI smoke)")
    parser.add_argument("--record-as", default="current",
                        help="label for this run in the record's wall.runs "
                             "history (pre_refactor / post_refactor / "
                             "current)")


def run(args):
    results = measure(quick=args.quick)
    rows = []
    for w in WORKLOADS[:4]:
        r = results[w]
        payload = (f"{r['bytes_moved_per_s']:,.0f}"
                   if "bytes_moved_per_s" in r else "-")
        rows.append([w, f"{r['events_per_s']:,.0f}",
                     f"{r['ns_per_event']:.0f}", payload])
    print_table("engine kernel throughput (wall clock)",
                ["workload", "events/s", "ns/event", "payload B/s"], rows)
    polls = [results["basic_poll"], results["basic_poll64"]]
    print_table("empty Basic receive poll",
                ["nodes", "polls", "items/poll", "us/poll"],
                [[poll["n_nodes"], poll["polls"], f"{poll['items_per_poll']:g}",
                  f"{poll['us_per_poll']:.1f}"] for poll in polls])

    wall = _history(args.json)
    wall["runs"][args.record_as] = results
    pre = wall["runs"].get("pre_refactor")
    post = wall["runs"].get("post_refactor")
    if pre and post:
        wall["speedup_events_per_s"] = (
            post["events_per_s"] / pre["events_per_s"])
        wall["speedup_bytes_moved_per_s"] = (
            post["bytes_moved_per_s"] / pre["bytes_moved_per_s"])
        print(f"speedup (events/s, post/pre): "
              f"{wall['speedup_events_per_s']:.2f}x")
    sim = {w: {k: v for k, v in results[w].items() if k not in WALL_FIELDS}
           for w in WORKLOADS}
    write_record(args.json, "engine",
                 {"quick": args.quick, "record_as": args.record_as},
                 sim, wall)
    print(f"\nrecorded as {args.record_as!r} in {args.json}")
    return check_claims({
        "kernel events/s > 0": results["events_per_s"] > 0,
        "alltoall8 bytes moved/s > 0": results["bytes_moved_per_s"] > 0,
        **{f"an empty poll on {poll['n_nodes']} nodes executed "
           f"{poll['items_per_poll']:g} items, expected {POLL_ITEMS}":
           poll["items_per_poll"] == POLL_ITEMS for poll in polls},
    })


BENCH = {
    "summary": "Event-kernel wall-clock throughput microbenchmarks",
    "flags": _flags,
    "run": run,
}
