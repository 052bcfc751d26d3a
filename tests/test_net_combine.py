"""Switch-resident combining (`repro.net.combine`): units and machine
integration.

Covers the tag wire format, the reply layouts
the switches share with the firmware (one registry in
``repro.common.wire``), combine-hit counters flowing into
``machine.metrics()``, and
the decombine-exactly-once sanitizer — both a clean pass and a seeded
violation (a forged stale reply) that must raise.
"""

import os

import pytest

import repro
from repro.common import wire
from repro.common.errors import NetworkError, SanitizerError, SimulationError
from repro.net.combine import MODE_FETCH, PHASE_DOWN, SyncTag
from repro.net.packet import PRIORITY_HIGH, Packet, PacketKind


def test_reply_bytes_mirror_firmware_proto():
    """The switches and the firmware share one registry: the replies a
    combining switch emits carry the firmware's reply type bytes."""
    assert wire.SYNC_REP.types == (wire.MSG_SYNC_REP,)
    assert wire.SYNC_TREE_REP.types == (wire.MSG_SYNC_TREE_REP,)
    rep = wire.SYNC_REP.pack(42, -5)
    assert rep[0] == wire.MSG_SYNC_REP
    assert wire.SYNC_REP.unpack(rep) == (42, -5)


def test_sync_tag_roundtrip():
    tag = SyncTag(PHASE_DOWN, MODE_FETCH, group=9, value=-17,
                  cell=3, seq=11, token=42, origin=6,
                  reply_queue=3)
    raw = tag.pack()
    assert len(raw) == wire.SYNC_TAG.size == 44
    back = SyncTag.unpack(raw)
    for field in SyncTag.__slots__:
        assert getattr(back, field) == getattr(tag, field), field
    # every tag sums: the old op, aux and count bytes are zero pads
    assert raw[14] == 0 and raw[24:32] == bytes(8) and raw[40:] == bytes(4)
    # combined packets carry origin NO_NODE
    anon = SyncTag(PHASE_DOWN, MODE_FETCH, group=1)
    assert SyncTag.unpack(anon.pack()).origin == wire.NO_NODE
    with pytest.raises(NetworkError):
        SyncTag.unpack(raw[:10])


def _switch_machine(n=4, **overrides):
    machine = repro.StarTVoyager(repro.default_config(n_nodes=n,
                                                      **overrides))
    grp = machine.sync_fabric().group(range(n), mode="switch")
    return machine, grp


def _contend(machine, grp, n, rounds=3):
    ctr = grp.counter(cell=0)

    def prog(api, rank):
        olds = []
        for _ in range(rounds):
            old = yield from ctr.add(api, rank, 1)
            olds.append(old)
        return olds

    procs = [machine.spawn(i, prog, i) for i in range(n)]
    return machine.run_all(procs, limit=1e9)


def test_combine_counters_reach_machine_metrics():
    machine, grp = _switch_machine(4)
    results = _contend(machine, grp, 4)
    # serializable fetch-and-add: the pre-op values are a permutation
    assert sorted(v for olds in results for v in olds) == list(range(12))
    counters = machine.metrics(include_config=False)["counters"]
    root = "sw%d.%d" % grp.plan.root
    assert counters[f"{root}.cell_ops"] >= 1
    hits = sum(v for k, v in counters.items() if k.endswith(".combine_hits"))
    folds = sum(v for k, v in counters.items()
                if k.endswith(".combine_folds"))
    decombines = sum(v for k, v in counters.items()
                     if k.endswith(".decombines"))
    assert hits > 0 and folds > 0 and decombines > 0


def test_clean_run_passes_combine_sanitizer():
    machine, grp = _switch_machine(4, sanitize=("combine",))
    _contend(machine, grp, 4)
    machine.run()  # drain: the exactly-once ledger must be empty
    rep = machine.sanitizers.checker("combine").report()
    assert rep["flushes"] == rep["closes"] > 0
    assert rep["replies"] > 0


def _forge_stale_reply(machine, grp):
    """A decombined reply whose token nobody recorded — the exact bug
    class (duplicate / stale decombine) the sanitizer exists to catch."""
    root_key = grp.plan.root
    stage = machine.network.switches[root_key].combiner
    tag = SyncTag(PHASE_DOWN, MODE_FETCH, grp.gid, value=7,
                  cell=0, token=0xDEAD)
    pkt = Packet(PacketKind.DATA, src=0, dst=0, dst_queue=0,
                 payload=tag.pack(), priority=PRIORITY_HIGH,
                 header_bytes=machine.config.network.header_bytes,
                 sync=tag)
    machine.engine.process(stage.accept(0, pkt))
    return stage


def test_seeded_violation_trips_combine_sanitizer():
    machine, grp = _switch_machine(4, sanitize=("combine",))
    _contend(machine, grp, 4)
    _forge_stale_reply(machine, grp)
    # the stage crashes inside a simulation process; strict mode re-raises
    # with the sanitizer's verdict as the cause
    with pytest.raises(SimulationError) as exc:
        machine.run()
    assert isinstance(exc.value.__cause__, SanitizerError)
    assert "nobody is waiting" in str(exc.value.__cause__)


@pytest.mark.skipif(bool(os.environ.get("REPRO_SANITIZE")),
                    reason="asserts the unsanitized counting path; "
                           "REPRO_SANITIZE forces checkers on")
def test_unsanitized_orphan_is_counted_and_dropped():
    machine, grp = _switch_machine(4)
    _contend(machine, grp, 4)
    _forge_stale_reply(machine, grp)
    machine.run()
    counters = machine.metrics(include_config=False)["counters"]
    orphans = sum(v for k, v in counters.items()
                  if k.endswith(".orphan_replies"))
    assert orphans == 1


def test_sanitizer_duplicate_reply_and_short_close():
    """Unit drive of the ledger: a reply duplicated onto one port and a
    close with contributors still unreplied both fail."""
    from repro.analysis.sanitize import CombineSanitizer

    chk = CombineSanitizer(machine=None)
    chk.note_open("sw1.0", ("k",))
    chk.note_flush("sw1.0", ("k",), token=1, expected=2)
    chk.note_reply("sw1.0", 1, port=0)
    with pytest.raises(SanitizerError, match="twice onto"):
        chk.note_reply("sw1.0", 1, port=0)

    chk = CombineSanitizer(machine=None)
    chk.note_flush("sw1.0", ("k",), token=1, expected=2)
    chk.note_reply("sw1.0", 1, port=0)
    with pytest.raises(SanitizerError, match="contributors lost"):
        chk.note_close("sw1.0", 1, expected=2)


def test_unprogrammed_group_is_rejected_loudly():
    machine, grp = _switch_machine(4)
    root_key = grp.plan.root
    stage = machine.network.switches[root_key].combiner
    tag = SyncTag(PHASE_DOWN, MODE_FETCH, group=999, token=1)
    pkt = Packet(PacketKind.DATA, src=0, dst=0, dst_queue=0,
                 payload=tag.pack(), priority=PRIORITY_HIGH,
                 header_bytes=machine.config.network.header_bytes,
                 sync=tag)
    machine.engine.process(stage.accept(0, pkt))
    with pytest.raises(SimulationError) as exc:
        machine.run()
    assert isinstance(exc.value.__cause__, NetworkError)
    assert "unprogrammed group" in str(exc.value.__cause__)
