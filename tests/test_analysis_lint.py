"""The project lint pass (:mod:`repro.analysis.lint`).

Every rule must fire on a seeded violation, stay quiet on the idiomatic
alternative, and honour the ``# repro: allow RULE`` suppression — a rule
that can't demonstrably fire is a rule that silently rotted.
"""

import json
import pathlib
import subprocess
import sys
import textwrap

from repro.analysis.lint import (
    RULES,
    check_source,
    classify,
    iter_py_files,
    lint_paths,
    main,
)

# a repro-package path in each category the scoping logic distinguishes
SIM = "src/repro/sim/engine.py"
NET = "src/repro/net/link.py"
MEM = "src/repro/mem/backing.py"
HARNESS = "src/repro/bench/harness.py"
TESTFILE = "tests/test_something.py"
BENCHFILE = "benchmarks/bench_something.py"


def rules_of(source, relpath=NET):
    return [v.rule for v in check_source(textwrap.dedent(source), relpath)]


# ----------------------------------------------------------------------
# classify
# ----------------------------------------------------------------------


def test_classify_splits_repro_paths():
    assert classify(NET) == ("repro", ("net", "link.py"))
    assert classify("src/repro/__init__.py") == ("repro", ("__init__.py",))
    assert classify(TESTFILE) == ("other", ("tests", "test_something.py"))


# ----------------------------------------------------------------------
# DET001 — wall clock
# ----------------------------------------------------------------------


def test_det001_time_call_fires():
    assert rules_of("import time\nt = time.time()\n") == ["DET001"]


def test_det001_perf_counter_import_and_call():
    src = "from time import perf_counter\nt = perf_counter()\n"
    assert rules_of(src) == ["DET001", "DET001"]  # the import and the call


def test_det001_datetime_now_fires():
    assert "DET001" in rules_of(
        "from datetime import datetime\nstamp = datetime.now()\n")
    assert "DET001" in rules_of(
        "import datetime\nstamp = datetime.datetime.now()\n")


def test_det001_exempt_in_sim_and_harness():
    src = "import time\nt = time.perf_counter()\n"
    assert rules_of(src, SIM) == []
    assert rules_of(src, HARNESS) == []
    assert rules_of(src, TESTFILE) == []  # tests may time themselves
    assert rules_of(src, NET) == ["DET001"]


def test_det001_ignores_simulated_time():
    # attribute access that isn't a wall-clock module doesn't count
    assert rules_of("t = engine.time()\nu = self.now\n") == []


# ----------------------------------------------------------------------
# DET002 — global random
# ----------------------------------------------------------------------


def test_det002_module_level_random_fires():
    assert rules_of("import random\nx = random.random()\n") == ["DET002"]
    assert rules_of("from random import randint\n") == ["DET002"]


def test_det002_seeded_random_instance_ok():
    src = "import random\nrng = random.Random(42)\nx = rng.random()\n"
    assert rules_of(src) == []
    assert rules_of("from random import Random\n") == []


def test_det002_applies_to_benchmarks_not_tests():
    src = "import random\nx = random.random()\n"
    assert rules_of(src, BENCHFILE) == ["DET002"]
    assert rules_of(src, TESTFILE) == []


# ----------------------------------------------------------------------
# DET003 — set iteration
# ----------------------------------------------------------------------


def test_det003_for_over_set_literal_fires():
    assert rules_of("for x in {1, 2, 3}:\n    pass\n") == ["DET003"]


def test_det003_tracked_set_variable_fires():
    src = """\
    sharers = set()
    for node in sharers:
        pass
    """
    assert rules_of(src) == ["DET003"]


def test_det003_annotated_attribute_fires():
    src = """\
    class Directory:
        def __init__(self):
            self.sharers: set = set()

        def walk(self):
            for node in self.sharers:
                pass
    """
    assert rules_of(src) == ["DET003"]


def test_det003_list_conversion_fires():
    src = "s = {1, 2}\nxs = list(s)\n"
    assert rules_of(src) == ["DET003"]


def test_det003_sorted_and_membership_ok():
    src = """\
    s = {1, 2}
    for x in sorted(s):
        pass
    present = 1 in s
    n = len(s)
    """
    assert rules_of(src) == []


def test_det003_set_arithmetic_result_fires():
    src = "a = {1, 2}\nb = {2}\nfor x in a - b:\n    pass\n"
    assert rules_of(src) == ["DET003"]


def test_det003_only_in_repro():
    assert rules_of("for x in {1, 2}:\n    pass\n", TESTFILE) == []


# ----------------------------------------------------------------------
# DET004 — id() ordering
# ----------------------------------------------------------------------


def test_det004_id_dict_key_fires():
    assert rules_of("d = {}\nd[id(obj)] = 1\n") == ["DET004"]


def test_det004_id_sort_key_fires():
    assert rules_of("xs.sort(key=id)\n") == ["DET004"]
    assert rules_of("ys = sorted(xs, key=lambda o: id(o))\n") == ["DET004"]


def test_det004_id_comparison_fires():
    assert rules_of("first = id(a) < id(b)\n") == ["DET004", "DET004"]


def test_det004_identity_check_ok():
    # plain identity tests don't derive an ordering
    assert rules_of("same = id(a) == id(b)\nprint(id(a))\n") == []


def test_det004_applies_everywhere():
    assert rules_of("d = {}\nd[id(obj)] = 1\n", TESTFILE) == ["DET004"]


# ----------------------------------------------------------------------
# DET005 — heap entries need a seq tie-breaker
# ----------------------------------------------------------------------


def test_det005_bare_priority_tuple_fires():
    assert rules_of("heapq.heappush(heap, (time, item))\n") == ["DET005"]
    assert rules_of("heappush(heap, (t, kind, payload))\n") == ["DET005"]
    assert rules_of("heapq.heappushpop(heap, (t, item))\n") == ["DET005"]


def test_det005_seq_element_satisfies():
    assert rules_of("heapq.heappush(heap, (time, seq, item))\n") == []
    assert rules_of("heappush(heap, (t, self._seq, ev))\n") == []
    assert rules_of("heappush(heap, (t, next(seq_counter), ev))\n") == []


def test_det005_non_tuple_and_single_element_exempt():
    # opaque entries and bare priorities can't tie on a payload compare
    assert rules_of("heapq.heappush(heap, item)\n") == []
    assert rules_of("heapq.heappush(heap, (t,))\n") == []


def test_det005_engine_exempt_tests_covered():
    src = "heapq.heappush(heap, (time, item))\n"
    assert rules_of(src, SIM) == []
    assert rules_of(src, TESTFILE) == ["DET005"]


def test_det005_suppressible():
    src = ("heapq.heappush(heap, (time, item))"
           "  # repro: allow DET005 -- items are totally ordered\n")
    assert rules_of(src) == []


# ----------------------------------------------------------------------
# DET006 — only the kernel moves an engine's clock and schedule
# ----------------------------------------------------------------------


def test_det006_engine_state_writes_fire():
    assert rules_of("engine._now = 5.0\n") == ["DET006"]
    assert rules_of("machine.engine._seq += 2\n") == ["DET006"]
    assert rules_of("self.engine.events_executed = 0\n") == ["DET006"]
    assert rules_of("heapq.heappush(engine._heap, item)\n") == ["DET006"]
    assert rules_of("engine._heap.clear()\n") == ["DET006"]
    assert rules_of("t, engine._now = 1, 2.0\n") == ["DET006"]


def test_det006_reads_and_own_attributes_are_fine():
    assert rules_of("t = engine._now + engine.events_executed\n") == []
    assert rules_of("self._seq = {}\nself._seq[node] = 1\n") == []
    assert rules_of("n = len(engine._heap)\n") == []


def test_det006_kernel_and_tests_exempt():
    src = "engine._now = 5.0\n"
    assert rules_of(src, SIM) == []
    assert rules_of(src, "src/repro/sim/process.py") == []
    assert rules_of(src, TESTFILE) == []
    assert rules_of(src, BENCHFILE) == ["DET006"]


def test_det006_suppressible():
    src = "engine._now = 5.0  # repro: allow DET006 -- a rewind test\n"
    assert rules_of(src) == []


# ----------------------------------------------------------------------
# ARCH001 — layering
# ----------------------------------------------------------------------


def test_arch001_sim_may_only_import_sim_and_common():
    assert rules_of("from repro.net.link import Link\n", SIM) == ["ARCH001"]
    assert rules_of("from repro.obs.core import Observability\n", SIM) \
        == ["ARCH001"]
    assert rules_of("from repro.common.histogram import Histogram\n", SIM) \
        == []
    src = "from repro.sim.events import Event\nfrom repro.common.errors import ReproError\n"
    assert rules_of(src, SIM) == []


def test_arch001_net_must_not_import_niu_or_firmware():
    assert rules_of("import repro.niu.queues\n", NET) == ["ARCH001"]
    assert rules_of("from repro.firmware import reliable\n", NET) == ["ARCH001"]
    assert rules_of("from repro.sim.store import Store\n", NET) == []


def test_arch001_mem_must_not_import_mp_or_shm():
    assert rules_of("from repro.mp import channel\n", MEM) == ["ARCH001"]
    assert rules_of("from repro.common.errors import AddressError\n", MEM) == []


def test_arch001_type_checking_imports_exempt():
    src = """\
    from typing import TYPE_CHECKING
    if TYPE_CHECKING:
        from repro.net.link import Link
    """
    assert rules_of(src, SIM) == []


# ----------------------------------------------------------------------
# ARCH002 — examples/benchmarks stay on the public surface
# ----------------------------------------------------------------------

BENCHMARK = "benchmarks/bench_demo.py"
EXAMPLE = "examples/demo.py"


def test_arch002_internal_import_fires():
    assert rules_of("from repro.niu.niu import vdst_for\n", BENCHMARK) \
        == ["ARCH002"]
    assert rules_of("import repro.sim.engine\n", EXAMPLE) == ["ARCH002"]
    assert rules_of("from repro.firmware.msg import MsgFw\n", EXAMPLE) \
        == ["ARCH002"]


def test_arch002_public_surface_allowed():
    src = """\
    import repro
    from repro.bench import fresh_machine
    from repro.mp import BasicPort, vdst_for
    from repro.lib.mpi import MiniMPI
    from repro.scenarios import run_scenario
    from repro.core.blocktransfer import BlockTransferEngine
    """
    assert rules_of(src, BENCHMARK) == []


def test_arch002_flags_the_retired_shard_stub():
    assert rules_of("from repro.shard import run_scenario\n", BENCHMARK) \
        == ["ARCH002"]


def test_arch002_only_applies_to_user_facing_dirs():
    assert rules_of("from repro.niu.niu import vdst_for\n",
                    "tests/test_demo.py") == []
    assert rules_of("from repro.niu.queues import QueueState\n",
                    "src/repro/mp/basic.py") == []


def test_arch002_suppressible_with_justification():
    src = ("from repro.sim.engine import Engine"
           "  # repro: allow ARCH002 -- raw engine microbenchmark\n")
    assert rules_of(src, BENCHMARK) == []


# ----------------------------------------------------------------------
# PERF001 — hot classes need __slots__
# ----------------------------------------------------------------------


def test_perf001_registered_class_without_slots_fires():
    src = "class Packet:\n    def __init__(self):\n        self.size = 0\n"
    assert rules_of(src, "src/repro/net/packet.py") == ["PERF001"]


def test_perf001_slots_satisfies():
    src = "class Packet:\n    __slots__ = ('size',)\n"
    assert rules_of(src, "src/repro/net/packet.py") == []


def test_perf001_unregistered_class_exempt():
    src = "class Helper:\n    pass\n"
    assert rules_of(src, "src/repro/net/packet.py") == []


# ----------------------------------------------------------------------
# PERF002 — sleep with a float, not a Timeout
# ----------------------------------------------------------------------


def test_perf002_yielded_timeout_fires():
    src = """
    def body(self, engine):
        yield Timeout(engine, 5.0)
        yield self.engine.timeout(self.op_ns)
        yield events.Timeout(engine, 1.0)
    """
    assert rules_of(src) == ["PERF002"] * 3


def test_perf002_float_sleep_and_kept_events_ok():
    src = """
    def body(self, engine, sp, ev):
        yield self.op_ns
        yield 5.0
        timer = engine.timeout(10.0)  # raced below: needs the Event
        yield engine.any_of([timer, ev])
        yield from fw_wait(sp, sp.engine.timeout(1.0))
    """
    assert rules_of(src) == []


def test_perf002_only_in_repro():
    src = "def body(engine):\n    yield engine.timeout(5.0)\n"
    assert rules_of(src, SIM) == ["PERF002"]
    assert rules_of(src, TESTFILE) == []
    assert rules_of(src, BENCHFILE) == []


def test_perf002_suppressible():
    src = ("def body(engine):\n"
           "    yield engine.timeout(5.0)  # repro: allow PERF002 -- demo\n")
    assert rules_of(src) == []


# ----------------------------------------------------------------------
# PERF003 — hot enum members through their module constants
# ----------------------------------------------------------------------


def test_perf003_enum_member_loads_in_function_bodies_fire():
    src = """
    def decide(self, txn):
        if txn.op in (BusOpType.READ, BusOpType.WRITE):
            return SnoopResult.CLAIM
        check = lambda q: q.kind is QueueKind.TX
        def inner(frame):
            return frame.state is LineState.INVALID
        return AccessMode.CACHED
    """
    assert rules_of(src) == ["PERF003"] * 6


def test_perf003_constants_and_one_time_loads_ok():
    src = """
    OP_READ = BusOpType.READ
    _READS = (BusOpType.READ, BusOpType.READ_LINE)

    class Handler:
        kinds = (QueueKind.TX, QueueKind.RX)

        def decide(self, txn, default=SnoopResult.OK) -> SnoopResult:
            if txn.op is OP_READ:
                return SNOOP_CLAIM
            return LineState(txn.state), FullPolicy.DROP
    """
    assert rules_of(src) == []


def test_perf003_only_in_repro_and_suppressible():
    src = "def f(op):\n    return op is BusOpType.KILL\n"
    assert rules_of(src, SIM) == ["PERF003"]
    assert rules_of(src, TESTFILE) == []
    assert rules_of(src, BENCHFILE) == []
    src = ("def f(op):\n"
           "    return op is BusOpType.KILL  # repro: allow PERF003 -- demo\n")
    assert rules_of(src) == []


def test_perf001_covers_the_wire_layout():
    src = "class Layout:\n    def __init__(self):\n        self.size = 0\n"
    assert rules_of(src, "src/repro/common/wire.py") == ["PERF001"]


# ----------------------------------------------------------------------
# ARCH003 — message bytes go through the wire registry
# ----------------------------------------------------------------------


def test_arch003_hand_rolled_codecs_fire():
    src = """
    def pack(seq, p):
        head = seq.to_bytes(4, "big") + (-1).to_bytes(8, "big", signed=True)
        return head, int.from_bytes(p[1:5], "big")
    """
    for path in ("src/repro/firmware/numa.py", "src/repro/collectives/api.py",
                 "src/repro/sync/api.py", "src/repro/traffic/kv.py",
                 "src/repro/net/combine.py", "src/repro/lib/activemsg.py"):
        assert rules_of(src, path) == ["ARCH003"] * 3, path


def test_arch003_registry_and_other_layers_exempt():
    src = "def f(v):\n    return v.to_bytes(4, 'big'), int.from_bytes(b'ab', 'big')\n"
    for path in ("src/repro/common/wire.py", "src/repro/net/link.py",
                 "src/repro/niu/ctrl.py", "src/repro/mp/basic.py",
                 TESTFILE, BENCHFILE):
        assert rules_of(src, path) == [], path


def test_arch003_layouts_and_lookalikes_ok():
    src = """
    def f(KV_REQ, p, data):
        return KV_REQ.unpack(p), bytes.fromhex("00"), data.from_bytes(p)
    """
    assert rules_of(src, "src/repro/traffic/firmware.py") == []


def test_arch003_suppressible():
    src = ("import zlib\n"
           "h = zlib.crc32(k.to_bytes(4, 'big'))  # repro: allow ARCH003 -- hash\n")
    assert rules_of(src, "src/repro/traffic/kv.py") == []


# ----------------------------------------------------------------------
# suppression, parse errors, driver
# ----------------------------------------------------------------------


def test_inline_suppression_silences_one_line():
    src = """\
    for x in {1, 2}:  # repro: allow DET003
        pass
    for y in {3, 4}:
        pass
    """
    violations = check_source(textwrap.dedent(src), NET)
    assert [v.rule for v in violations] == ["DET003"]
    assert violations[0].line == 3


def test_inline_suppression_multiple_rules():
    src = "import time\nd = {id(a): time.time()}  # repro: allow DET001, DET004\n"
    assert rules_of(src) == []


def test_suppression_is_rule_specific():
    src = "for x in {1, 2}:  # repro: allow DET004\n    pass\n"
    assert rules_of(src) == ["DET003"]


def test_syntax_error_reported_not_crashed():
    violations = check_source("def broken(:\n", NET)
    assert [v.rule for v in violations] == ["PARSE"]


def test_violation_render_is_location_prefixed():
    (v,) = check_source("import time\nt = time.time()\n", NET)
    assert v.render().startswith(f"{NET}:2:")
    assert "DET001" in v.render()


def test_iter_py_files_deterministic_and_filtered(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    sub = tmp_path / "__pycache__"
    sub.mkdir()
    (sub / "cached.py").write_text("x = 1\n")
    files = list(iter_py_files([str(tmp_path)]))
    assert [f.rsplit("/", 1)[-1] for f in files] == ["a.py", "b.py"]


def test_main_json_report(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "net" / "clocky.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nt = time.time()\n")
    rc = main(["lint", "--json", str(tmp_path)])
    report = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert report["schema"] == "startv.lint"
    assert report["checked_files"] == 1
    assert report["rules"] == RULES
    (violation,) = report["violations"]
    assert violation["rule"] == "DET001"
    assert violation["line"] == 2


def test_main_clean_tree_exits_zero(tmp_path, capsys):
    good = tmp_path / "fine.py"
    good.write_text("x = 1\n")
    rc = main(["lint", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0


REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", "--json",
         "src/repro/analysis"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["violations"] == []


def test_repo_lints_clean():
    """The enforced CI property: the shipped tree has zero violations."""
    paths = [str(REPO_ROOT / p)
             for p in ("src", "tests", "benchmarks", "examples")]
    violations, n_files = lint_paths(paths)
    assert n_files > 100
    assert violations == [], "\n".join(v.render() for v in violations)
