"""clsSRAM state bits and the (bus op x state) action table."""

import pytest

from repro.bus.ops import BusOpType
from repro.common.errors import AddressError, ConfigError
from repro.niu.clssram import (
    CLS_INVALID,
    CLS_PENDING,
    CLS_RO,
    CLS_RW,
    ClsAction,
    ClsSram,
    install_scoma_default_table,
)


def _cls(n_lines=16):
    return ClsSram(cover_base=0x1000, n_lines=n_lines, line_bytes=32)


def test_coverage():
    c = _cls()
    assert c.covers(0x1000)
    assert c.covers(0x1000 + 16 * 32 - 1)
    assert not c.covers(0x1000 + 16 * 32)
    assert not c.covers(0xFFF)


def test_line_addressing():
    c = _cls()
    assert c.line_of(0x1000) == 0
    assert c.line_of(0x1000 + 33) == 1
    assert c.addr_of(2) == 0x1040
    with pytest.raises(AddressError):
        c.line_of(0x0)
    with pytest.raises(AddressError):
        c.addr_of(99)


def test_state_bits():
    c = _cls()
    assert c.state(0) == CLS_INVALID  # default
    c.set_state(0, CLS_RW)
    assert c.state(0) == CLS_RW
    with pytest.raises(AddressError):
        c.set_state(0, 16)  # needs 4 bits


def test_set_range():
    c = _cls()
    c.set_range(2, 4, CLS_RO)
    assert [c.state(i) for i in range(8)] == \
        [0, 0, CLS_RO, CLS_RO, CLS_RO, CLS_RO, 0, 0]


def test_load_states_bulk():
    c = _cls()
    c.set_state(7, CLS_RO)
    c.load_states(bytes([CLS_RW, CLS_INVALID, CLS_RW]))
    assert [c.state(i) for i in range(8)] == \
        [CLS_RW, 0, CLS_RW, 0, 0, 0, 0, CLS_RO]  # lines past the load kept
    with pytest.raises(AddressError):
        c.load_states(bytes(17))  # longer than the coverage
    assert c.state(0) == CLS_RW  # a rejected load writes nothing


def test_unprogrammed_pairs_pass():
    c = _cls()
    action = c.check(BusOpType.READ, 0x1000)
    assert not action.retry and not action.pass_to_sp


def test_action_table_lookup():
    c = _cls()
    c.set_action(BusOpType.READ, CLS_INVALID, ClsAction(retry=True,
                                                        pass_to_sp=True))
    a = c.check(BusOpType.READ, 0x1000)
    assert a.retry and a.pass_to_sp
    # a different state is a different table slot
    c.set_state(1, CLS_RW)
    a2 = c.check(BusOpType.READ, 0x1020)
    assert not a2.retry


def test_next_state_transition():
    c = _cls()
    install_scoma_default_table(c)
    # first read of an INVALID line: retry + notify, flips to PENDING
    a1 = c.check(BusOpType.READ, 0x1000)
    assert a1.retry and a1.pass_to_sp
    assert c.state(0) == CLS_PENDING
    # retries of the PENDING line stay quiet
    a2 = c.check(BusOpType.READ, 0x1000)
    assert a2.retry and not a2.pass_to_sp


def test_default_table_write_paths():
    c = _cls()
    install_scoma_default_table(c)
    c.set_state(0, CLS_RO)
    a = c.check(BusOpType.KILL, 0x1000)  # store upgrade against RO
    assert a.retry and a.pass_to_sp
    assert c.state(0) == CLS_PENDING
    c.set_state(1, CLS_RW)
    a2 = c.check(BusOpType.RWITM, 0x1020)  # owned: passes
    assert not a2.retry


def test_default_table_valid_reads_pass():
    c = _cls()
    install_scoma_default_table(c)
    for state in (CLS_RO, CLS_RW):
        c.set_state(3, state)
        a = c.check(BusOpType.READ_LINE, 0x1060)
        assert not a.retry and not a.pass_to_sp


def test_statistics():
    c = _cls()
    install_scoma_default_table(c)
    c.check(BusOpType.READ, 0x1000)
    c.check(BusOpType.READ, 0x1000)
    assert c.checks == 2
    assert c.retries == 2


def test_construction_validation():
    with pytest.raises(ConfigError):
        ClsSram(0x1000, 0, 32)
    with pytest.raises(ConfigError):
        ClsSram(0x1001, 4, 32)


# ----------------------------------------------------------------------
# the protocol cause envelopes (repro.coherence.protocol.CACHE_TABLE)
# ----------------------------------------------------------------------

from repro.coherence.protocol import (
    CACHE_TABLE,
    l2_snoop_reaction,
    cache_transition_legal,
)


def test_cause_envelopes_legal_paths():
    assert cache_transition_legal("grant", CLS_PENDING, CLS_RO)
    assert cache_transition_legal("grant", CLS_PENDING, CLS_RW)
    assert cache_transition_legal("downgrade", CLS_RW, CLS_RO)
    assert cache_transition_legal("inv", CLS_RO, CLS_INVALID)
    assert cache_transition_legal("relinquish", CLS_RW, CLS_INVALID)
    assert cache_transition_legal("wb_install", CLS_INVALID, CLS_RO)
    assert cache_transition_legal("evict", CLS_RW, CLS_INVALID)
    assert cache_transition_legal("settle", CLS_PENDING, CLS_RW)


def test_cause_envelopes_reject_offtable():
    # an invalidation may never produce a readable copy
    assert not cache_transition_legal("inv", CLS_RO, CLS_RW)
    # only the exclusive owner can downgrade
    assert not cache_transition_legal("downgrade", CLS_RO, CLS_RO)
    # recalled data re-validates the home read-only, never exclusive
    assert not cache_transition_legal("wb_install", CLS_INVALID, CLS_RW)


def test_cause_envelopes_unknown_cause_is_a_bug():
    with pytest.raises(KeyError):
        cache_transition_legal("made_up_cause", CLS_RO, CLS_INVALID)


def test_cause_envelopes_ignore_offprotocol_states():
    # experimental 4-bit values outside MSI are not audited
    assert cache_transition_legal("inv", 0x7, 0x9)


def test_every_cause_envelope_nonempty():
    for cause, (legal_old, legal_new) in CACHE_TABLE.items():
        assert legal_old and legal_new, cause


def test_l2_snoop_table_matches_msi():
    # a foreign read demotes Modified to Shared, pushing the dirty line
    reaction = l2_snoop_reaction("M", BusOpType.READ_LINE)
    assert reaction.push and reaction.next_state == "S"
    # a KILL drops the line without writeback (the killer owns it now)
    reaction = l2_snoop_reaction("M", BusOpType.KILL)
    assert not reaction.push and reaction.next_state == "I"
    # Shared lines never push
    reaction = l2_snoop_reaction("S", BusOpType.RWITM)
    assert not reaction.push and reaction.next_state == "I"
    # no reaction for unrelated pairs
    assert l2_snoop_reaction("S", BusOpType.READ) is None


def test_sanitizer_rejects_illegal_cause_transition():
    """A cause-tagged clsSRAM write outside its envelope is a protocol
    violation the coherence sanitizer must flag."""
    import repro
    from repro.common.errors import SanitizerError

    cfg = repro.default_config(n_nodes=2)
    cfg.sanitize = "coherence"
    m = repro.StarTVoyager(cfg)
    cls = m.node(0).niu.cls
    with pytest.raises(SanitizerError):
        cls.set_state(0, CLS_RW, cause="inv")
    with pytest.raises(SanitizerError):
        cls.set_state(1, CLS_RO, cause="no_such_cause")
