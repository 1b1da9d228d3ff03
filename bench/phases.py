"""What one workload's child process does: set-up, timed phase, traced phase.

* **Set-up**: imports, the job matrix, one in-process warm-up job on the
  workload's own path.
* **Timed phase** (tracing off): cold campaigns, each with a fresh cache
  and campaign directory, then warm re-runs served from the first cold
  campaign's cache.  Closed loop: one campaign at a time, each on
  ``WORKERS`` pool workers or cluster nodes.
* **Traced phase**: job-level side runs of every job (bare and profiled
  device runs, decode, serialise, re-parse; ``KernelProfiler`` on a
  sample), then one cold and one warm campaign in-process with
  :class:`~spans.Tracer` wrappers installed, next to an untraced
  in-process cold campaign for the tracing overhead.

Every campaign is checked as it finishes: all jobs ok, none quarantined,
no lost messages, and one ``aggregate.json`` digest for the workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import time
import types
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fleet import CampaignJob, CampaignSpec, execute_job, run_campaign
from repro.fleet.store import AGGREGATE_NAME, STORE_NAME

from spans import Tracer, by_name
from stats import NOMINAL_REF_S, host_ref_s
from workloads import WORKERS, Workload

#: share of ``--seconds`` spent on cold campaigns; warm re-runs get the
#: rest (calibrated warm re-runs are short and steady, cold ones are not)
COLD_SHARE = 0.8
#: fewest campaigns of each kind per run, however short ``--seconds`` is
MIN_CAMPAIGNS = 3
#: jobs (lowest job ids) run under ``KernelProfiler``
KPROF_JOBS = 4
#: KernelProfiler component name -> reported group; the rest is
#: ``peripherals``.  The DAP is part of the measurement plane.
KERNEL_GROUPS = {"tricore": "tricore", "pcp": "pcp", "mcds": "mcds",
                 "dap": "mcds", "dma": "dma"}

#: span around a traced campaign call; its self time is what no layer
#: span covers — the orchestrator's (or the cluster node loop's) own
ROOT = "fleet.orchestrator"

#: metric name -> (value, sample count)
Values = Dict[str, Tuple[float, int]]


@dataclass
class Campaign:
    """One finished, checked campaign."""

    root: str
    wall: float              # seconds, raw
    cpu: float               # user+sys seconds, process and children
    #: nominal over measured host reference: ``wall * scale`` is the wall
    #: at the nominal host speed
    scale: float
    metrics: object          # the report's CampaignMetrics
    sim_cycles: int          # simulated cycles of the ok records


def build_jobs(workload: Workload, seed: int) -> List[CampaignJob]:
    """The first ``quota[domain]`` customers of each domain, in order."""
    left = dict(workload.quota)
    jobs = []
    for job in CampaignSpec(count=CampaignSpec.MAX_COUNT, seed=seed,
                            **workload.grid).build_jobs():
        if left.get(job.domain, 0) > 0:
            left[job.domain] -= 1
            jobs.append(job)
    if any(left.values()):
        raise ValueError(f"seed {seed}: population too small for {left}")
    return jobs


def jobset_key(jobs: Sequence[CampaignJob]) -> str:
    """Digest of the job list: workloads sharing it must share results."""
    ids = ",".join(sorted(job.job_id for job in jobs))   # content-derived
    return hashlib.sha256(ids.encode("utf-8")).hexdigest()


def warm_up(workload: Workload, jobs: Sequence[CampaignJob]) -> None:
    """One in-process job through the path's own job code."""
    first = min(jobs, key=lambda job: job.job_id).to_dict()
    if workload.path == "batch":
        from repro.batch import run_lane_group
        run_lane_group([first])
        return
    if workload.path == "cluster":
        import repro.cluster  # noqa: F401  (node-side imports)
    execute_job(first)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _device(job: Dict):
    from repro.fleet.worker import CONFIGS, SCENARIOS
    return SCENARIOS[job["domain"]]().build(
        CONFIGS[job["device"]](), dict(job["params"]), seed=job["seed"])


def _session(device, job: Dict):
    from repro.core.profiling import spec as pspec
    from repro.core.profiling.session import ProfilingSession
    return ProfilingSession(device, pspec.engine_parameter_set(
        ipc_resolution=job["ipc_resolution"], rate_per=job["rate_per"]))


class Bench:
    """One workload's campaigns, their checks and their measurements."""

    def __init__(self, workload: Workload, jobs: Sequence[CampaignJob],
                 work: str) -> None:
        self.workload = workload
        self.jobs = sorted(jobs, key=lambda job: job.job_id)
        self.work = work
        self.digests: set = set()
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self._seq = 0
        #: (busy / (wall x workers), retries) of untraced real-path runs
        self.pool_samples: List[Tuple[float, int]] = []

    # -- campaigns -------------------------------------------------------------
    def _dirs(self, root: str) -> Tuple[str, str]:
        """(cache dir, store dir) of a campaign under ``root``."""
        if self.workload.path == "cluster":
            cluster = os.path.join(root, "cluster")
            return os.path.join(cluster, "cache"), cluster
        return os.path.join(root, "cache"), os.path.join(root, "campaign")

    def _prepare(self, root: str, workers: int,
                 cache_from: Optional[str]) -> Callable:
        os.makedirs(root)
        cache_dir, store_dir = self._dirs(root)
        if self.workload.path == "cluster":
            from repro.cluster import run_clustered
            if cache_from is not None:
                shutil.copytree(cache_from, cache_dir)
            return lambda: run_clustered(self.jobs, store_dir, nodes=workers)
        backend = "batch" if self.workload.path == "batch" else "scalar"
        return lambda: run_campaign(
            self.jobs, workers=workers, cache_dir=cache_from or cache_dir,
            campaign_dir=store_dir, backend=backend)

    def run(self, workers: int, cache_from: Optional[str] = None,
            tracer: Optional[Tracer] = None) -> Campaign:
        """One checked campaign, the host reference timed around it.

        ``workers=0`` runs it in this process; ``cache_from`` starts it
        from a finished campaign's cache (a warm re-run).
        """
        self._seq += 1
        root = os.path.join(self.work, f"c{self._seq:03d}")
        go = self._prepare(root, workers, cache_from)
        before = host_ref_s()
        cpu0 = _cpu_s()
        start = time.perf_counter()
        if tracer is None:
            report = go()
        else:
            with tracer.span(ROOT) as span:
                span.args["warm"] = cache_from is not None
                report = go()
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        scale = NOMINAL_REF_S / ((before + host_ref_s()) / 2)
        self._check(report, warm=cache_from is not None)
        # keep counts only: payloads held here would grow this process,
        # and every worker forked from it, from campaign to campaign
        return Campaign(root, wall, cpu, scale, report.metrics, sum(
            int(record["payload"]["sim_cycles"])
            for record in report.ok_records))

    def _check(self, report, warm: bool) -> None:
        self.attempted += len(self.jobs)
        self.failed += len(report.quarantined)
        if report.aggregate_path is None:
            self.problems.append("a campaign finished without an aggregate")
            return
        with open(report.aggregate_path, "rb") as handle:
            self.digests.add(hashlib.sha256(handle.read()).hexdigest())
        if len(report.ok_records) != len(self.jobs):
            self.problems.append(
                f"{len(report.ok_records)} of {len(self.jobs)} jobs ok, "
                f"{len(report.quarantined)} quarantined")
        if report.metrics.lost_messages:
            self.problems.append(
                f"{report.metrics.lost_messages} trace messages lost")
        if warm and report.metrics.cache_hits != len(self.jobs):
            self.problems.append(
                f"warm re-run served {report.metrics.cache_hits} of "
                f"{len(self.jobs)} jobs from the cache")

    def _note_pool(self, campaign: Campaign) -> None:
        metrics = campaign.metrics
        self.pool_samples.append(
            (metrics.busy_s / (campaign.wall * WORKERS), metrics.retries))

    # -- timed phase -----------------------------------------------------------
    def timed(self, seconds: float) -> Tuple[Values, Dict[str, List[float]]]:
        """Cold campaigns for ``COLD_SHARE`` of ``seconds``, then warm
        re-runs for the rest.

        Returns the end-to-end metrics (times host-calibrated) and the
        raw samples: cold walls, warm walls, host scale per campaign.
        """
        start = time.perf_counter()
        cold: List[Campaign] = []
        while (len(cold) < MIN_CAMPAIGNS
               or time.perf_counter() - start < seconds * COLD_SHARE):
            campaign = self.run(WORKERS)
            self._note_pool(campaign)
            if cold:
                shutil.rmtree(campaign.root)
            cold.append(campaign)
        rss = _peak_rss_mb()
        cache = self._dirs(cold[0].root)[0]
        warm: List[Campaign] = []
        # a full share even when the last cold campaign ran over
        start = time.perf_counter()
        while (len(warm) < MIN_CAMPAIGNS
               or time.perf_counter() - start < seconds * (1 - COLD_SHARE)):
            warm.append(self.run(WORKERS, cache_from=cache))
            shutil.rmtree(warm[-1].root)
        shutil.rmtree(cold[0].root)
        # per-campaign medians, not totals: one campaign caught in a slow
        # stretch of the host would move a total by itself
        n = len(cold)
        return {
            "campaign_s_p50": (median([c.wall * c.scale for c in cold]), n),
            "sim_cycles_per_s": (median([c.sim_cycles / (c.wall * c.scale)
                                         for c in cold]), n),
            "cpu_s_per_job": (median([c.cpu * c.scale / c.metrics.executed
                                      for c in cold]), n),
            "peak_rss_mb": (rss, 1),
            "warm_campaign_s_p50": (median([c.wall * c.scale for c in warm]),
                                    len(warm)),
        }, {"cold": [c.wall for c in cold], "warm": [c.wall for c in warm],
            "scale": [c.scale for c in cold + warm]}

    # -- traced phase ----------------------------------------------------------
    def traced(self) -> Tuple[Values, Tracer]:
        if not self.pool_samples:
            # trace-only run: one untraced real-path campaign for the
            # pool-level numbers the in-process trace cannot show
            campaign = self.run(WORKERS)
            self._note_pool(campaign)
            shutil.rmtree(campaign.root)
        values: Values = {
            "fleet.orchestrator.worker_utilization": (
                median([u for u, _ in self.pool_samples]),
                len(self.pool_samples)),
            "fleet.orchestrator.retries": (
                sum(r for _, r in self.pool_samples), len(self.pool_samples)),
        }
        reference = self.run(0)
        shutil.rmtree(reference.root)

        tracer = Tracer()
        instrument(tracer)
        try:
            cold = self.run(0, tracer=tracer)
            warm = self.run(0, cache_from=self._dirs(cold.root)[0],
                            tracer=tracer)
        finally:
            tracer.unpatch_all()
        # appends write every record once, the closing rewrite once more
        written = 0
        for root in (cold.root, warm.root):
            store = self._dirs(root)[1]
            written += 2 * os.path.getsize(os.path.join(store, STORE_NAME))
            written += os.path.getsize(os.path.join(store, AGGREGATE_NAME))
        with open(os.path.join(self._dirs(cold.root)[1],
                               AGGREGATE_NAME)) as handle:
            payloads = {entry["job_id"]: entry["payload"]
                        for entry in json.load(handle)["jobs"]}
        shutil.rmtree(cold.root)
        shutil.rmtree(warm.root)

        values.update(span_values(tracer))
        values["fleet.store.bytes_written"] = (written, 2)
        values["trace.overhead_frac"] = (
            (cold.wall * cold.scale) / (reference.wall * reference.scale)
            - 1.0, 1)
        values.update(self.job_layers(payloads))
        values.update(self.kernel_shares())
        return values, tracer

    def job_layers(self, payloads: Dict[str, Dict]) -> Values:
        """Bare and profiled runs of every job through the scalar pipeline.

        Measured the same way on every workload, so the job-level layers
        of pool-default, batch-default and cluster-default (same jobs)
        are directly comparable.  Each decoded profile is also compared
        with the campaign's payload for that job — on batch-default that
        checks the lanes against the scalar path.
        """
        from repro.core.profiling.export import result_to_json
        clock = time.perf_counter
        t = dict.fromkeys(("build", "bare", "profiled", "decode",
                           "serialise", "reparse"), 0.0)
        cycles = skipped = alive = 0
        messages = bits = lost = samples = payload_bytes = 0
        for job in self.jobs:
            spec = job.to_dict()
            start = clock()
            device = _device(spec)
            t["build"] += clock() - start
            start = clock()
            device.run(spec["cycles"])
            t["bare"] += clock() - start
            stats = device.soc.sim.kernel_stats()
            cycles += stats["cycles"]
            for entry in stats["components"]:
                skipped += entry["skipped"]
                alive += entry["ticks"] + entry["skipped"]

            device = _device(spec)
            session = _session(device, spec)
            start = clock()
            device.run(spec["cycles"])
            t["profiled"] += clock() - start
            start = clock()
            result = session.result()
            t["decode"] += clock() - start
            start = clock()
            text = result_to_json(result, compact=True)
            t["serialise"] += clock() - start
            start = clock()
            profile = json.loads(text)
            t["reparse"] += clock() - start
            messages += device.mcds.total_messages
            bits += result.trace_bits
            lost += result.lost_messages
            samples += sum(len(data) for data in result.series.values())
            payload_bytes += len(text)
            if profile != payloads[job.job_id]["profile"]:
                self.problems.append(
                    f"job {job.name}: campaign payload differs from a "
                    f"scalar profiling run of the same job")
        n = len(self.jobs)
        plane = t["profiled"] - t["bare"]
        if lost:
            self.problems.append(f"{lost} trace messages lost in side runs")
        return {
            "workloads.build_s": (t["build"], n),
            "soc.kernel.busy_s": (t["bare"], n),
            "soc.kernel.cycles_per_s": (cycles / t["bare"], n),
            "soc.kernel.skip_ratio": (skipped / alive, n),
            "mcds.plane_s": (plane, n),
            "mcds.plane_share": (plane / t["profiled"], n),
            "mcds.messages": (messages, n),
            "mcds.trace_bits": (bits, n),
            "ed.lost_messages": (lost, n),
            "core.profiling.decode_s": (t["decode"], n),
            "core.profiling.samples": (samples, n),
            "core.profiling.export.serialise_s": (t["serialise"], n),
            "fleet.worker.reparse_s": (t["reparse"], n),
            "core.profiling.export.payload_bytes": (payload_bytes, n),
        }

    def kernel_shares(self) -> Values:
        """KernelProfiler tick self-time shares on profiled runs.

        kprof times each component's ``tick``; MCDS counter updates are
        hub callbacks run inside the *emitting* component's tick, so they
        are booked to that component (mostly the TriCore), not to
        ``mcds``.  The plane's real cost is therefore ``mcds.plane_s``
        (profiled minus bare run), not the ``mcds`` share here.
        """
        from repro.soc.kernel.kprof import KernelProfiler
        walls = dict.fromkeys(("tricore", "pcp", "mcds", "dma",
                               "peripherals"), 0.0)
        sample = self.jobs[:KPROF_JOBS]
        for job in sample:
            spec = job.to_dict()
            device = _device(spec)
            _session(device, spec)
            with KernelProfiler(device.soc.sim):
                device.run(spec["cycles"])
                stats = device.soc.sim.kernel_stats()
            for entry in stats["components"]:
                group = KERNEL_GROUPS.get(entry["name"], "peripherals")
                walls[group] += entry.get("wall_s", 0.0)
        total = sum(walls.values())
        return {f"soc.kernel.self_share.{group}": (wall / total, len(sample))
                for group, wall in walls.items()}


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's entry points in spans (undo: ``unpatch_all``)."""
    from repro.batch import lanes
    from repro.cluster import lease, node
    from repro.core.profiling.session import ProfilingSession
    from repro.ed.device import EmulationDevice
    from repro.fleet import cache, store, worker
    from repro.soc.kernel.simulator import Simulator

    patch = tracer.patch
    patch(worker, "execute_job", "fleet.worker.job")
    patch(node, "execute_job", "fleet.worker.job")
    for scenario in set(worker.SCENARIOS.values()):
        patch(scenario, "build", "workloads.build")
    patch(EmulationDevice, "run", "soc.run")
    patch(ProfilingSession, "result", "core.profiling.decode")
    patch(worker, "result_to_json", "core.profiling.export.serialise")
    # the worker re-parses its own serialisation through its ``json``
    shim = types.SimpleNamespace(**vars(json))
    shim.loads = tracer.wrap("fleet.worker.reparse", json.loads)
    tracer.replace(worker, "json", shim)

    patch(store.ResultStore, "append", "fleet.store.append")
    patch(store.ResultStore, "rewrite", "fleet.store.rewrite")
    patch(store.ResultStore, "write_aggregate", "fleet.store.aggregate")
    patch(store.ResultStore, "load", "fleet.store.load")
    patch(cache.ResultCache, "lookup", "fleet.cache.lookup",
          note=lambda payload, *args: {"hit": payload is not None})
    patch(cache.ResultCache, "store", "fleet.cache.store")

    patch(lanes.LaneSimulator, "__init__", "batch.lanes.build")
    patch(lanes.LaneSimulator, "run", "batch.lanes.sweep")
    patch(lanes.LaneSimulator, "result", "batch.measure.reconstruct")
    patch(lanes, "profile_payload", "batch.measure.payload")
    # the orchestrator calls its own binding of run_shard; only
    # run_batch_shard's scalar fallback goes through the worker module
    patch(worker, "run_shard", "batch.fallback")

    patch(Simulator, "snapshot_state", "checkpoint.snapshot")
    patch(worker, "save_checkpoint", "checkpoint.save",
          note=lambda path, *args: {"bytes": os.path.getsize(path)})
    patch(worker, "load_latest_checkpoint", "checkpoint.load")
    for op in ("claim", "renew", "release", "check"):
        patch(lease.LeaseManager, op, "cluster.lease",
              note=lambda held, *args, op=op: {
                  "fenced": op == "renew" and held is None})
    patch(node, "publish_plan", "cluster.plan")
    patch(node, "mark_done", "cluster.mark_done")
    patch(node, "finalize", "cluster.finalize")
    patch(node.ClusterNode, "_beat", "cluster.heartbeat")


def span_values(tracer: Tracer) -> Values:
    """Campaign-level layer metrics from the traced campaigns' spans."""
    spans = tracer.spans
    table = by_name(spans)

    def own(name: str) -> Tuple[float, int]:
        return tuple(table.get(name, (0.0, 0)))

    def count(name: str) -> Tuple[int, int]:
        calls = table.get(name, (0.0, 0))[1]
        return calls, calls

    wall = sum(span.duration for span in spans if span.parent is None)
    root_self, roots = own(ROOT)
    lookups = [s for s in spans if s.name == "fleet.cache.lookup"]
    leases = [s for s in spans if s.name == "cluster.lease"]
    saves = [s for s in spans if s.name == "checkpoint.save"]
    return {
        "fleet.store.append_s": own("fleet.store.append"),
        "fleet.store.appends": count("fleet.store.append"),
        "fleet.store.rewrite_s": own("fleet.store.rewrite"),
        "fleet.store.aggregate_s": own("fleet.store.aggregate"),
        "fleet.cache.store_s": own("fleet.cache.store"),
        "fleet.cache.lookup_s": own("fleet.cache.lookup"),
        "fleet.cache.hit_ratio": (
            sum(1 for s in lookups if s.args.get("hit")) / len(lookups),
            len(lookups)),
        "fleet.orchestrator.self_s": (root_self, roots),
        "batch.fallbacks": count("batch.fallback"),
        "checkpoint.saves": count("checkpoint.save"),
        "checkpoint.bytes": (sum(s.args.get("bytes", 0) for s in saves),
                             len(saves)),
        "cluster.lease_ops": count("cluster.lease"),
        "cluster.fenced": (
            sum(1 for s in leases if s.args.get("fenced")
                or s.args.get("error") == "StaleLeaseError"), len(leases)),
        "trace.coverage": (1.0 - root_self / wall, len(spans)),
        "batch.lanes.build_s": own("batch.lanes.build"),
        "batch.lanes.sweep_s": own("batch.lanes.sweep"),
        "batch.measure.reconstruct_s": own("batch.measure.reconstruct"),
        "checkpoint.snapshot_s": own("checkpoint.snapshot"),
        "checkpoint.save_s": own("checkpoint.save"),
        "cluster.lease_s": own("cluster.lease"),
        "cluster.finalize_s": own("cluster.finalize"),
    }


def ledger(tracer: Tracer) -> List[Tuple[str, float, int]]:
    """Self time and calls by span name, largest self time first."""
    return sorted(((name, seconds, calls)
                   for name, (seconds, calls) in by_name(tracer.spans).items()),
                  key=lambda row: (-row[1], row[0]))
