"""What the benchmark runs and what it reports: workloads and metrics.

Pure data, importable without the ``repro`` package, so the registry can
be checked (and ``BENCHMARK.json`` derived) in a directory that holds
only the benchmark.

Every workload is a portfolio generated on the tc1797 by
``CampaignSpec(seed=N)``; the seed comes from the command line and the
program under test only ever sees the generated jobs.  The benchmark
takes a fixed number of customers per domain from the seed's population
(the default 45/25/15/15 engine/transmission/body/rtos mix, rounded), so
the seed varies the customers but not the domain mix: on the fine grid a
free draw moves the trace-message count by 7% between seeds, the quota
by 2%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: pool workers or cluster nodes per campaign: at most ``nproc`` on the
#: two-core machine the bounds were fixed on
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: execution path: ``pool`` / ``batch`` (``run_campaign`` with that
    #: backend) or ``cluster`` (``run_clustered``, node subprocesses)
    path: str
    quota: Dict = field(default_factory=dict)  # customers per domain
    grid: Dict = field(default_factory=dict)   # other CampaignSpec keywords


#: 32 customers in the default mix, 50k cycles on the default grid
DEFAULT = {"quota": {"engine": 14, "transmission": 8, "body": 5, "rtos": 5},
           "grid": {"cycles": 50_000}}

WORKLOADS = (
    Workload(
        "pool-default",
        "the campaign users run by default: kernel and measurement plane "
        "share the cost, store and cache writes are small",
        "pool", **DEFAULT),
    Workload(
        "pool-fine",
        "finest grid the EMEM holds without loss: the measurement plane, "
        "decode and payload I/O dominate, a kernel speedup barely shows",
        "pool", {"engine": 5, "transmission": 3, "body": 2, "rtos": 2},
        {"cycles": 20_000, "ipc_resolution": 32, "rate_per": 1}),
    Workload(
        "batch-default",
        "same jobs on numpy lanes that bypass the live measurement plane: "
        "a plane change predicts no change here, a kernel change shows most",
        "batch", **DEFAULT),
    Workload(
        "cluster-default",
        "same jobs on two node processes: leases, checkpoint snapshots and "
        "fsyncs carry the extra cost",
        "cluster", **DEFAULT),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def workload(name: str) -> Workload:
    for entry in WORKLOADS:
        if entry.name == name:
            return entry
    raise KeyError(f"unknown workload {name!r}; choose from "
                   f"{list(WORKLOAD_NAMES)}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                       # "lower" | "higher"
    doc: str
    #: regression bound (share of the parent's median); end-to-end only
    bound: Optional[float] = None
    #: ``None``: reported on every workload.  A path name: the layer only
    #: exists on that path, so the metric is printed for it alone and is
    #: left out of ``BENCHMARK.json`` (elsewhere it would read a constant
    #: zero time on every run)
    path: Optional[str] = None


def _m(name, unit, better, doc, bound=None, path=None) -> Metric:
    return Metric(name, unit, better, doc, bound, path)


#: end-to-end metrics: untraced timed phase.  Times are host-calibrated
#: (``stats.host_ref_s``); the raw readings are printed next to them.
#: Bounds are what the two-CPU VM holds over ten seeds: calibrated
#: campaign medians there spread 5-20% run to run (bench/README.md).
END_TO_END = (
    _m("setup_s", "s", "lower",
       "median over fresh processes of start through imports, job matrix "
       "and one in-process warm-up job", 0.25),
    _m("campaign_s_p50", "s", "lower",
       "median wall of the cold campaigns, call until aggregate written",
       0.25),
    _m("sim_cycles_per_s", "cycles/s", "higher",
       "median over cold campaigns of simulated cycles per second of wall",
       0.25),
    _m("cpu_s_per_job", "s", "lower",
       "median over cold campaigns of user+sys of the process and its "
       "reaped children per executed job", 0.25),
    _m("peak_rss_mb", "MB", "lower",
       "larger ru_maxrss of the process and its children after the timed "
       "phase (not calibrated)", 0.10),
    _m("warm_campaign_s_p50", "s", "lower",
       "median wall of re-runs served from the first cold campaign's cache",
       0.25),
)

#: per-layer metrics: traced phase (job-level side runs + traced campaign)
PER_LAYER = (
    _m("workloads.build_s", "s", "lower", "Scenario.build, all jobs"),
    _m("soc.kernel.busy_s", "s", "lower",
       "bare device.run (no profiling session), all jobs"),
    _m("soc.kernel.cycles_per_s", "cycles/s", "higher",
       "simulated cycles over soc.kernel.busy_s"),
    _m("soc.kernel.skip_ratio", "ratio", "higher",
       "component-cycles skipped by the quiescent kernel, bare runs"),
    _m("soc.kernel.self_share.tricore", "ratio", "lower",
       "KernelProfiler tick self-time share, 4-job profiled sample"),
    _m("soc.kernel.self_share.pcp", "ratio", "lower", "as above"),
    _m("soc.kernel.self_share.mcds", "ratio", "lower",
       "as above; MCDS and DAP components"),
    _m("soc.kernel.self_share.dma", "ratio", "lower", "as above"),
    _m("soc.kernel.self_share.peripherals", "ratio", "lower",
       "as above; every other SoC component"),
    _m("mcds.plane_s", "s", "lower",
       "profiled device.run minus bare device.run, all jobs"),
    _m("mcds.plane_share", "ratio", "lower",
       "mcds.plane_s over profiled device.run"),
    _m("mcds.messages", "count", "lower", "trace messages emitted"),
    _m("mcds.trace_bits", "bits", "lower", "trace bits emitted"),
    _m("ed.lost_messages", "count", "lower",
       "messages lost in the EMEM or at the DAP"),
    _m("core.profiling.decode_s", "s", "lower", "ProfilingSession.result"),
    _m("core.profiling.samples", "count", "higher", "decoded rate samples"),
    _m("core.profiling.export.serialise_s", "s", "lower", "result_to_json"),
    _m("fleet.worker.reparse_s", "s", "lower",
       "json.loads of the serialised profile"),
    _m("core.profiling.export.payload_bytes", "bytes", "lower",
       "serialised profile size"),
    _m("fleet.store.append_s", "s", "lower", "ResultStore.append self time"),
    _m("fleet.store.appends", "count", "lower", "ResultStore.append calls"),
    _m("fleet.store.rewrite_s", "s", "lower", "ResultStore.rewrite self time"),
    _m("fleet.store.aggregate_s", "s", "lower",
       "ResultStore.write_aggregate self time"),
    _m("fleet.store.bytes_written", "bytes", "lower",
       "record log appends + rewrite + aggregate"),
    _m("fleet.cache.store_s", "s", "lower", "ResultCache.store self time"),
    _m("fleet.cache.lookup_s", "s", "lower", "ResultCache.lookup self time"),
    _m("fleet.cache.hit_ratio", "ratio", "higher",
       "hits over lookups, traced cold + warm campaign"),
    _m("fleet.orchestrator.self_s", "s", "lower",
       "traced campaign wall not covered by any layer span"),
    _m("fleet.orchestrator.worker_utilization", "ratio", "higher",
       "in-worker busy time over wall x workers, untraced real-path runs"),
    _m("fleet.orchestrator.retries", "count", "lower",
       "retried attempts, untraced real-path runs"),
    _m("batch.fallbacks", "count", "lower",
       "lane groups re-run on the scalar path"),
    _m("checkpoint.saves", "count", "lower", "checkpoint files written"),
    _m("checkpoint.bytes", "bytes", "lower", "checkpoint bytes written"),
    _m("cluster.lease_ops", "count", "lower",
       "LeaseManager claim/renew/release/check calls"),
    _m("cluster.fenced", "count", "lower",
       "renewals refused and commits rejected as stale"),
    _m("trace.coverage", "ratio", "higher",
       "share of the traced wall covered by layer spans"),
    _m("trace.overhead_frac", "ratio", "lower",
       "traced in-process campaign over an untraced one, minus 1"),
    # layers that exist on one path only
    _m("batch.lanes.build_s", "s", "lower", "LaneSimulator set-up",
       path="batch"),
    _m("batch.lanes.sweep_s", "s", "lower",
       "LaneSimulator.run self time (lane simulation is under soc.run)",
       path="batch"),
    _m("batch.measure.reconstruct_s", "s", "lower",
       "LaneSimulator.result (numpy profile reconstruction)", path="batch"),
    _m("checkpoint.snapshot_s", "s", "lower", "Simulator.snapshot_state",
       path="cluster"),
    _m("checkpoint.save_s", "s", "lower", "save_checkpoint self time",
       path="cluster"),
    _m("cluster.lease_s", "s", "lower", "LeaseManager ops self time",
       path="cluster"),
    _m("cluster.finalize_s", "s", "lower", "finalize self time",
       path="cluster"),
)

METRICS = END_TO_END + PER_LAYER


def metric(name: str) -> Metric:
    for entry in METRICS:
        if entry.name == name:
            return entry
    raise KeyError(name)


def reported(kind: str) -> List[Metric]:
    """The metrics ``BENCHMARK.json`` lists (and the JSON line carries)."""
    pool = END_TO_END if kind == "end_to_end" else PER_LAYER
    return [m for m in pool if m.path is None]


def benchmark_document(run_seconds: int) -> Dict:
    """``BENCHMARK.json`` as derived from this registry."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in reported("end_to_end")],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in reported("per_layer")],
    }
