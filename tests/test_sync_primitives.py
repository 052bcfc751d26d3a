"""The scalable-synchronization library (`repro.sync.api`).

Every primitive is exercised over both transports — in-switch combining
and the pure-endpoint sP fallback — plus the cross-cutting guarantees:
ticket-lock FIFO fairness deterministic across machine seeds, sweep
results byte-identical for any ``--jobs`` value, and identical behaviour
with and without the combine sanitizer armed.
"""

import pytest

import repro
from repro.bench.harness import run_sweep, strip_wall
from repro.common.errors import ConfigError, ProgramError
from repro.lib.mpi import MiniMPI
from repro.obs.snapshot import metrics_snapshot

MODES = ("switch", "endpoint")


def _machine(n, **overrides):
    return repro.StarTVoyager(repro.default_config(n_nodes=n, **overrides))


def _group(machine, mode, members=None):
    if members is None:
        members = range(machine.config.n_nodes)
    return machine.sync_fabric().group(members, mode=mode)


# ----------------------------------------------------------------------
# the two verbs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_counter_is_serializable(mode):
    """Concurrent fetch-and-adds return the values of *some* serial
    order: the pre-op values are a permutation of 0..N*rounds-1."""
    n, rounds = 4, 3
    machine = _machine(n)
    ctr = _group(machine, mode).counter(cell=0)

    def prog(api, rank):
        olds = []
        for _ in range(rounds):
            olds.append((yield from ctr.add(api, rank, 1)))
        return olds

    procs = [machine.spawn(i, prog, i) for i in range(n)]
    results = machine.run_all(procs, limit=1e9)
    assert sorted(v for olds in results for v in olds) \
        == list(range(n * rounds))


@pytest.mark.parametrize("mode", MODES)
def test_tree_op_allreduces(mode):
    """Two back-to-back sums; distinct powers of two in the second show
    every member counted exactly once."""
    n = 4
    machine = _machine(n)
    grp = _group(machine, mode)

    def prog(api, rank):
        s = yield from grp.tree_op(api, rank, rank + 1)
        bits = yield from grp.tree_op(api, rank, 1 << rank)
        return s, bits

    procs = [machine.spawn(i, prog, i) for i in range(n)]
    results = machine.run_all(procs, limit=1e9)
    assert results == [(sum(range(1, n + 1)), (1 << n) - 1)] * n


def test_subgroup_membership_enforced():
    machine = _machine(4)
    grp = _group(machine, "switch", members=[0, 2, 3])

    def outsider(api):
        yield from grp.counter().add(api, 1, 1)

    proc = machine.spawn(1, outsider)
    with pytest.raises(Exception) as exc:
        machine.run_until(proc, limit=1e9)
    assert isinstance(exc.value.__cause__ or exc.value, ProgramError)


# ----------------------------------------------------------------------
# barriers
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_barrier_separates_phases(mode):
    """Nobody may leave the barrier before everyone has entered: after
    the wait, every member sees the full pre-barrier count."""
    n = 5  # non-power-of-two exercises the odd tree shapes
    machine = _machine(n)
    grp = _group(machine, mode, members=range(n))
    ctr = grp.counter(cell=7)

    def prog(api, rank):
        yield from api.compute(300 * rank)  # staggered arrivals
        yield from ctr.add(api, rank, 1)
        yield from grp.barrier(api, rank)
        return (yield from ctr.read(api, rank))

    procs = [machine.spawn(i, prog, i) for i in range(n)]
    results = machine.run_all(procs, limit=1e9)
    assert all(v >= n for v in results)


def test_barrier_reusable_across_rounds():
    n, rounds = 4, 3
    machine = _machine(n)
    grp = _group(machine, "switch")

    def prog(api, rank):
        for r in range(rounds):
            yield from api.compute(100 * ((rank + r) % n))
            yield from grp.barrier(api, rank)
        return rounds

    procs = [machine.spawn(i, prog, i) for i in range(n)]
    assert machine.run_all(procs, limit=1e9) == [rounds] * n


def test_unknown_mode_rejected():
    machine = _machine(2)
    with pytest.raises(ConfigError):
        machine.sync_fabric().group([0, 1], mode="bogus")


def test_single_node_machine_degrades_to_endpoint():
    """No network: switch mode falls back to the sP-served transport and
    everything still works through the CTRL loopback."""
    machine = _machine(1)
    grp = _group(machine, "switch")
    assert grp.mode == "endpoint" and grp.plan is None
    ctr = grp.counter()

    def prog(api):
        yield from ctr.add(api, 0, 5)
        yield from grp.barrier(api, 0)
        return (yield from ctr.read(api, 0))

    assert machine.run_until(machine.spawn(0, prog), limit=1e9) == 5


def test_service_queue_burst_overflow_redelivered():
    """A simultaneous-arrival burst deeper than the sP service queue
    diverts to the miss queue; firmware re-dispatches those entries
    through the normal handler table instead of dropping them (a
    dropped arrival would hang the endpoint barrier forever)."""
    from repro.common.config import NIUConfig

    n = 16
    machine = _machine(n, niu=NIUConfig(queue_depth=4))
    grp = _group(machine, "endpoint")

    def prog(api, rank):
        yield from grp.barrier(api, rank)
        return 1

    procs = [machine.spawn(i, prog, i) for i in range(n)]
    assert machine.run_all(procs, limit=1e9) == [1] * n
    counters = machine.metrics(include_config=False)["counters"]
    redelivered = sum(v for k, v in counters.items()
                      if k.endswith(".missq_redelivered"))
    dropped = sum(v for k, v in counters.items()
                  if k.endswith(".missq_dropped"))
    assert redelivered > 0 and dropped == 0


# ----------------------------------------------------------------------
# locks
# ----------------------------------------------------------------------


def _exclusion_log(machine, lock, n, rounds=2):
    log = []

    def prog(api, rank):
        for _ in range(rounds):
            yield from lock.acquire(api, rank)
            log.append(("enter", rank))
            yield from api.compute(400)
            log.append(("exit", rank))
            yield from lock.release(api, rank)

    procs = [machine.spawn(i, prog, i) for i in range(n)]
    machine.run_all(procs, limit=1e10)
    return log


def _assert_mutual_exclusion(log, n, rounds):
    assert len(log) == 2 * n * rounds
    inside = None
    for kind, rank in log:
        if kind == "enter":
            assert inside is None, f"{rank} entered while {inside} held"
            inside = rank
        else:
            assert inside == rank
            inside = None


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", ("ticket",))
def test_locks_are_mutually_exclusive(mode, kind):
    n, rounds = 4, 2
    machine = _machine(n)
    grp = _group(machine, mode)
    lock = getattr(grp, f"{kind}_lock")(cell=0)
    log = _exclusion_log(machine, lock, n, rounds)
    _assert_mutual_exclusion(log, n, rounds)


@pytest.mark.parametrize("seed", (0, 1, 7))
def test_ticket_lock_fifo_fair_across_seeds(seed):
    """Tickets grant in issue order — staggered requesters enter in
    exactly their arrival order, whatever the machine seed does to route
    spreading and tree placement."""
    n = 4
    machine = _machine(n, seed=seed)
    grp = _group(machine, "switch")
    lock = grp.ticket_lock(cell=0)
    order = []

    def prog(api, rank):
        yield from api.compute(5000 * rank)  # well-separated requests
        ticket = yield from lock.acquire(api, rank)
        order.append((ticket, rank))
        yield from api.compute(200)
        yield from lock.release(api, rank)

    procs = [machine.spawn(i, prog, i) for i in range(n)]
    machine.run_all(procs, limit=1e10)
    assert order == [(i, i) for i in range(n)]


# ----------------------------------------------------------------------
# determinism: jobs parity and sanitizer transparency
# ----------------------------------------------------------------------


def _sync_point(spec):
    """Module-level (picklable) sweep worker: one contended machine."""
    n, mode, sanitize = spec
    machine = _machine(n, sanitize=sanitize)
    grp = _group(machine, mode)
    ctr = grp.counter(cell=0)

    def prog(api, rank):
        old = yield from ctr.add(api, rank, 1)
        yield from grp.barrier(api, rank)
        total = yield from ctr.read(api, rank)
        return old, total

    procs = [machine.spawn(i, prog, i) for i in range(n)]
    results = machine.run_all(procs, limit=1e9)
    snap = strip_wall(metrics_snapshot(machine, include_config=False))
    return results, snap


def test_sync_sweep_byte_identical_across_jobs():
    specs = [(4, "switch", ()), (4, "endpoint", ()), (3, "switch", ())]
    a = run_sweep(_sync_point, specs, jobs=1)
    b = run_sweep(_sync_point, specs, jobs=4)
    assert a == b


def test_sanitizers_do_not_perturb_the_simulation():
    """Arming the combine checker changes nothing observable: same
    results, same simulated time, same counters."""
    plain_res, plain_snap = _sync_point((4, "switch", ()))
    armed_res, armed_snap = _sync_point((4, "switch", ("combine",)))
    assert plain_res == armed_res
    assert plain_snap == armed_snap


# ----------------------------------------------------------------------
# MiniMPI integration (the collectives face of the same machinery)
# ----------------------------------------------------------------------


def test_minimpi_switch_barrier_and_allreduce():
    n = 4
    machine = _machine(n)
    mpi = MiniMPI(machine, algo="switch")

    def worker(api, rank):
        comm = mpi.rank(rank)
        yield from comm.barrier(api)
        return (yield from comm.allreduce(api, rank + 1))

    procs = [machine.spawn(i, worker, i) for i in range(n)]
    results = machine.run_all(procs, limit=1e9)
    assert results == [sum(range(1, n + 1))] * n
