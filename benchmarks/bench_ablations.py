"""Experiment X-abl — ablations of the design choices DESIGN.md calls out.

Three knobs whose values the implementation (and the real firmware team)
had to pick:

* **DMA piece size** — smaller pieces pipeline the block-read and
  block-transmit units better but pay per-piece firmware and command
  overhead; a page-sized piece serializes read against transmit;
* **queue depth** — shallow queues force flow-control stalls on
  streaming traffic; depth buys throughput until the network is the
  bottleneck;
* **receiver poll backoff** — a spinning receiver's uncached pointer
  loads steal memory-bus bandwidth from the NIU's DRAM writes (the §6
  remark that retry-spinning "prevents the aP from doing any useful
  work" generalizes to polling).
"""

import pytest

from benchmarks.conftest import record
from repro import default_config
from repro.bench import fresh_machine
from repro.core.blocktransfer import BlockTransferExperiment
from repro.scenarios import run_scenario, scenario

HEADER = ["knob", "value", "metric", "result"]
SIZE = 16384


def _a3_with_piece(piece_bytes):
    machine = fresh_machine(2)
    for node in machine.nodes:
        node.sp.state["dma_piece_bytes"] = piece_bytes
    result = BlockTransferExperiment(machine).run(3, SIZE)
    assert result.verified
    return result


@pytest.mark.parametrize("piece", [256, 512, 1024, 2048, 4096])
def test_dma_piece_size(benchmark, piece):
    result = benchmark.pedantic(_a3_with_piece, args=(piece,), rounds=1,
                                iterations=1)
    record("Ablations", HEADER,
           ["DMA piece bytes", piece, "A3 bandwidth MB/s",
            result.bandwidth_mb_s])


def test_piece_size_tradeoff(benchmark):
    """Both extremes lose to the middle: tiny pieces drown in per-piece
    overhead, page-sized pieces serialize read against transmit."""

    def run():
        return {p: _a3_with_piece(p).bandwidth_mb_s
                for p in (256, 1024, 4096)}

    bw = benchmark.pedantic(run, rounds=1, iterations=1)
    assert bw[1024] >= bw[256]
    assert bw[1024] >= bw[4096] * 0.95  # mid piece at least matches a page


def _stream_with_depth(depth, count=60):
    cfg = default_config(n_nodes=2)
    cfg.niu.queue_depth = depth
    run = run_scenario(scenario("basic_stream", count=count), config=cfg)
    return run.results[0]


@pytest.mark.parametrize("depth", [4, 16, 64])
def test_queue_depth(benchmark, depth):
    stream = benchmark.pedantic(_stream_with_depth, args=(depth,), rounds=1,
                                iterations=1)
    record("Ablations", HEADER,
           ["queue depth", depth, "stream MB/s (64 B)", stream["mb_per_s"]])
    record("Ablations", HEADER,
           ["queue depth", depth, "sender MB/s (64 B)",
            stream["send_mb_per_s"]])


def test_depth_helps_until_saturation(benchmark):
    # The sender's side: with a shallow transmit queue it stalls on the
    # consumer-pointer poll until CTRL drains a slot.  The receiver-bound
    # end of the stream is set by the consumer's polling and reads the
    # same at every depth, so it would show nothing here.
    def run():
        return {d: _stream_with_depth(d)["send_mb_per_s"]
                for d in (2, 4, 16, 64)}

    bw = benchmark.pedantic(run, rounds=1, iterations=1)
    assert bw[2] < bw[4] < bw[16]  # more buffering absorbs burstiness
    assert abs(bw[64] - bw[16]) <= 0.1 * bw[16]  # but returns diminish


def _a3_with_poll(poll_insns):
    """A3 transfer with the receiver's notification poll loop tightness
    varied (0 = hammer the bus)."""
    machine = fresh_machine(2)
    exp = BlockTransferExperiment(machine)
    # monkeypatch the notifier's poll cadence through the port API
    original_recv = exp.notifier.port.recv

    def recv(api, poll_insns_=poll_insns):
        return original_recv(api, poll_insns=poll_insns_)

    exp.notifier.port.recv = recv
    result = exp.run(3, SIZE)
    assert result.verified
    return result


@pytest.mark.parametrize("poll", [0, 25, 200])
def test_poll_backoff(benchmark, poll):
    result = benchmark.pedantic(_a3_with_poll, args=(poll,), rounds=1,
                                iterations=1)
    record("Ablations", HEADER,
           ["receiver poll insns", poll, "A3 bandwidth MB/s",
            result.bandwidth_mb_s])


def _a3_with_dram(row_buffer):
    import repro

    cfg = repro.default_config(n_nodes=2)
    cfg.dram.row_buffer = row_buffer
    machine = repro.StarTVoyager(cfg)
    result = BlockTransferExperiment(machine).run(3, SIZE)
    assert result.verified
    return result


@pytest.mark.parametrize("row_buffer", [False, True])
def test_dram_open_page(benchmark, row_buffer):
    result = benchmark.pedantic(_a3_with_dram, args=(row_buffer,), rounds=1,
                                iterations=1)
    record("Ablations", HEADER,
           ["DRAM open-page", "on" if row_buffer else "off",
            "A3 bandwidth MB/s", result.bandwidth_mb_s])


def test_open_page_speeds_block_streams(benchmark):
    def run():
        return (_a3_with_dram(False).bandwidth_mb_s,
                _a3_with_dram(True).bandwidth_mb_s)

    flat, openpage = benchmark.pedantic(run, rounds=1, iterations=1)
    assert openpage > flat  # block streams are row-hit heavy


def test_tight_polling_steals_bus_bandwidth(benchmark):
    def run():
        return (_a3_with_poll(0).bandwidth_mb_s,
                _a3_with_poll(200).bandwidth_mb_s)

    tight, loose = benchmark.pedantic(run, rounds=1, iterations=1)
    record("Ablations", HEADER,
           ["polling contention", "0 vs 200", "bandwidth ratio",
            loose / tight])
    assert loose > tight  # backing off the poll loop speeds the transfer
