"""Schema-versioned metrics snapshots.

One machine-wide, machine-readable measurement format, so every
benchmark emits the same shape and plotting/regression tooling can stop
scraping stdout.  The schema:

====================  =====================================================
key                   contents
====================  =====================================================
``schema``            ``"startv.metrics"`` — the format's name
``schema_version``    integer, bumped on incompatible layout changes
``now_ns``            simulated time of the snapshot
``n_nodes``           machine size
``sim``               engine health: ``events_executed``, ``pending_events``,
                      plus ``wall`` — *wall-clock*
                      gauges (``seconds``, ``events_per_second``) that vary
                      run to run with host load; determinism comparisons
                      must strip ``sim.wall``
``counters``          flat name -> int (monotonic event counts)
``accumulators``      name -> {n, mean, min, max, total, stddev,
                      p50, p90, p99, p999} (percentiles from the
                      log-bucketed
                      :class:`~repro.common.histogram.Histogram`).  Values
                      come from per-scope partials folded in sorted-scope
                      order (:meth:`StatsRegistry.merged_accumulators`).
``busy_ns``           busy-tracker name -> accumulated busy nanoseconds
``occupancy``         node id (str) -> {"ap": fraction, "sp": fraction}
``directory``         cluster-wide S-COMA directory-protocol totals
                      (invalidations sent, data forwards, ack round-trips,
                      dup/stale drops) plus the sharer-set occupancy
                      histogram sampled at every read grant
``traffic``           per-application serving-traffic SLO rollup (one
                      entry per :mod:`repro.traffic` application that
                      ran: offered / completed / SLO-violation request
                      totals, goodput = within-SLO fraction of offered,
                      and the request-latency accumulator row)
``config``            flat machine configuration (``MachineConfig.describe``)
====================  =====================================================

Extra keys may appear next to these (benchmarks add ``benchmark``/
``points``); consumers must ignore keys they do not know.

Version history: v1 had no ``shards`` key and snapshotted accumulators in
raw insertion order; v2 adds ``shards`` and the canonical scope-merged
accumulator fold; v3 adds the ``directory`` section; v4 adds ``p999``
to every accumulator row and the ``traffic`` SLO section.  The top-level
``shards`` key was later dropped with the sharded engine, still at v4:
:func:`comparable` always stripped it, so no
wall-stripped snapshot or digest changed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.sim.stats import Accumulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.machine import StarTVoyager

#: current layout version of the snapshot dict below.
METRICS_SCHEMA = "startv.metrics"
METRICS_SCHEMA_VERSION = 4

#: directory-protocol counters (per-node firmware counter suffix ->
#: snapshot key); the ``directory`` section sums them cluster-wide.
_DIRECTORY_COUNTERS = (
    ("invalidations_sent", "scoma_inv_sent"),
    ("forwards", "scoma_forwards"),
    ("ack_rounds", "scoma_ack_rounds"),
    ("dup_requests", "scoma_dup_requests"),
    ("stale_wbreq", "scoma_stale_wbreq"),
    ("stale_wbdata", "scoma_stale_wbdata"),
    ("stale_evicts", "scoma_stale_evicts"),
)

#: the sharer-occupancy accumulator (scoped name).
_SHARER_OCCUPANCY = "scoma.sharer_occupancy"

#: serving-traffic applications (:mod:`repro.traffic`) the ``traffic``
#: section rolls up, and the per-node request counters it sums.  Counter
#: names follow ``traffic.<app>.n<node>.<key>``.
_TRAFFIC_APPS = ("kv", "ps", "usvc")
_TRAFFIC_KEYS = ("offered", "completed", "slo_violations")


def _directory_section(counters: Dict[str, int],
                       accumulator_rows: Dict[str, Any]) -> Dict[str, Any]:
    """Cluster-wide directory-protocol totals from per-node counters."""
    section: Dict[str, Any] = {}
    for key, suffix in _DIRECTORY_COUNTERS:
        dotted = "." + suffix
        section[key] = sum(value for name, value in counters.items()
                           if name.endswith(dotted))
    section["sharer_occupancy"] = accumulator_rows.get(_SHARER_OCCUPANCY)
    return section


def _traffic_section(counters: Dict[str, int],
                     accumulator_rows: Dict[str, Any]) -> Dict[str, Any]:
    """Cluster-wide SLO rollup per serving-traffic application.

    Goodput is the within-SLO fraction of *offered* load — a drained
    simulation completes every request eventually, so raw completion
    never shows the overload knee; the SLO cutoff does.
    """
    section: Dict[str, Any] = {}
    for app in _TRAFFIC_APPS:
        prefix = f"traffic.{app}."
        totals: Dict[str, Any] = {}
        for key in _TRAFFIC_KEYS:
            dotted = "." + key
            totals[key] = sum(
                value for name, value in counters.items()
                if name.startswith(prefix) and name.endswith(dotted))
        if not any(totals.values()):
            continue  # the application did not run on this machine
        offered = totals["offered"]
        within = totals["completed"] - totals["slo_violations"]
        totals["goodput"] = within / offered if offered else 0.0
        totals["latency_ns"] = accumulator_rows.get(
            f"traffic.{app}.latency_ns")
        section[app] = totals
    return section


def _accumulator_rows(merged: Dict[str, Accumulator]) -> Dict[str, Any]:
    rows: Dict[str, Any] = {}
    for name, acc in sorted(merged.items()):
        row = acc.hist.to_dict()
        row["stddev"] = acc.stddev
        rows[name] = row
    return rows


def metrics_snapshot(machine: "StarTVoyager",
                     include_config: bool = True) -> Dict[str, Any]:
    """One machine's complete measurement state as a JSON-ready dict."""
    engine = machine.engine
    engine.wake_dormant()
    stats = machine.stats
    counters = {name: c.value for name, c in sorted(stats._counters.items())}
    accumulators = _accumulator_rows(stats.merged_accumulators())
    snapshot: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "schema_version": METRICS_SCHEMA_VERSION,
        "now_ns": machine.now,
        "n_nodes": machine.config.n_nodes,
        "sim": {
            "events_executed": engine.events_executed,
            "pending_events": engine.pending_events,
            # wall-clock, not simulated: nondeterministic by nature.
            "wall": {
                "seconds": engine.wall_seconds,
                "events_per_second": engine.events_per_second,
            },
        },
        "counters": counters,
        "accumulators": accumulators,
        "busy_ns": {name: b.current()
                    for name, b in sorted(stats._busy.items())},
        "occupancy": {
            str(node.node_id): {
                "ap": node.ap.busy.occupancy(),
                "sp": node.sp.busy.occupancy(),
            }
            for node in machine.nodes
        },
        "directory": _directory_section(counters, accumulators),
        "traffic": _traffic_section(counters, accumulators),
    }
    if include_config:
        snapshot["config"] = machine.config.describe()
    return snapshot


def strip_wall(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Drop the wall-clock gauges from a metrics snapshot, in place.

    ``sim.wall`` (host seconds, events/second) varies run to run with
    machine load; everything else in the snapshot is simulated and
    deterministic.  Sweep workers and the schedule explorer call this so
    their documents compare byte-for-byte across job counts and hosts.
    """
    sim = snapshot.get("sim")
    if isinstance(sim, dict):
        sim.pop("wall", None)
    return snapshot


#: a snapshot's deterministic core, in place: everything but ``sim.wall``.
comparable = strip_wall

