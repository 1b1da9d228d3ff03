"""Campaign orchestrator: fans a job matrix over a fault-tolerant pool.

Execution model
---------------

* Each job is one ``ProcessPoolExecutor`` task, ``run_shard([job])``:
  the job is the one unit the pool and the cluster node schedule.
  ``run_shard`` isolates failures per job, so a raising job returns a
  structured error outcome instead of an exception.
* Failed jobs are retried at once, one job at a time (so a poison job
  can only hurt itself), for as long as
  :func:`~repro.fleet.worker.should_retry` allows — the policy the
  cluster node shares.  A job it refuses is **quarantined**: recorded
  with its error and excluded from the aggregate, while every other job
  completes normally.
* A worker process dying outright breaks the pool; the orchestrator
  fails the jobs whose results had not come back, ends the pool's
  workers, and continues on a fresh pool.  A job exceeding
  ``timeout_s`` fails alone: the jobs behind it run again on a fresh
  pool at the same attempt.
* Before anything is submitted, each job is looked up in the
  content-addressed :class:`~repro.fleet.cache.ResultCache` and, under
  ``resume=True``, in the campaign's JSONL store — hits never reach the
  pool, which is why a warm re-run executes zero jobs.

* A campaign is asked to stop by a ``STOP`` file in its directory
  (:func:`~repro.fleet.store.request_stop`).  ``run()`` binds the
  directory and the ``deadline_s`` deadline into one picklable
  :func:`~repro.fleet.worker.campaign_stop`, which the workers, in
  process or in the pool, consult before each job and at every
  checkpoint or lane stride boundary.  A STOP ends the run early with
  ``CampaignReport.preempted=True`` — completed records durable in the
  store, the interrupted job's checkpoint on disk — and once the file
  is deleted a ``resume=True`` run finishes the campaign
  byte-identically.  This is how ``repro.serve`` evicts a low-priority
  campaign under load.

Results are bit-identical regardless of worker count: every job builds
its own seeded device, and the aggregate artifact is written sorted by
content-derived job id with timing metadata excluded.
"""

from __future__ import annotations

import gc
import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as \
    FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, List, Optional, Sequence

from ..errors import ConfigurationError
from ..faults import FaultPlan
from ..obs import bridge as _obs_bridge
from ..obs import runtime as _obs
from .cache import ResultCache
from .metrics import CampaignMetrics
from .spec import CampaignJob
from .store import ResultStore, job_record
# the orchestrator calls its own run_shard binding: bench/phases.py wraps
# worker.run_shard to count other callers
from .worker import (STOP_REASONS, StopCheck, campaign_stop, run_shard,
                     shard_outcome, should_retry, start_forked_worker)


def _pool_task(job: Dict, *args) -> List[Dict]:
    """``run_shard([job], *args)`` in a pool worker, then a full
    collection: a finished job's device is a web of reference cycles,
    which the collector's own schedule lets pile up job after job."""
    outcomes = run_shard([job], *args)
    gc.collect()
    return outcomes


@dataclass
class CampaignReport:
    """Everything a campaign run produced.

    ``preempted=True`` means the run stopped early at a safe boundary
    (a ``STOP`` file appeared in the campaign directory): every completed
    record is durable in the store, the interrupted job's checkpoint is
    on disk, and no aggregate was written — once the file is deleted, a
    ``resume=True`` run finishes the campaign byte-identically.
    """

    records: List[Dict] = field(default_factory=list)   # sorted by job_id
    metrics: CampaignMetrics = field(default_factory=CampaignMetrics)
    store_path: Optional[str] = None
    aggregate_path: Optional[str] = None
    preempted: bool = False
    #: the run hit its wall-clock deadline: terminal for this submission
    #: (unlike ``preempted``, nobody will resume it), no aggregate is
    #: written, and unfinished jobs are simply not run — never quarantined
    deadline_exceeded: bool = False

    @property
    def ok_records(self) -> List[Dict]:
        return [r for r in self.records if r["status"] == "ok"]

    @property
    def quarantined(self) -> List[Dict]:
        return [r for r in self.records if r["status"] == "quarantined"]


class CampaignRunner:
    """Runs one campaign: cache/resume short-circuit, pool fan-out,
    retry/quarantine, store + aggregate emission."""

    def __init__(self, jobs: Sequence[CampaignJob],
                 workers: int = 1,
                 cache_dir: Optional[str] = None,
                 campaign_dir: Optional[str] = None,
                 max_retries: int = 2,
                 timeout_s: Optional[float] = None,
                 resume: bool = False,
                 fault_plan: Optional[Dict] = None,
                 checkpoint_every: Optional[int] = None,
                 deadline_s: Optional[float] = None,
                 backend: str = "scalar") -> None:
        if backend not in ("scalar", "batch"):
            raise ConfigurationError(
                f"unknown backend {backend!r}; "
                f"choose from ['batch', 'scalar']")
        if backend == "batch":
            from ..batch import require_numpy
            require_numpy()       # fail at admission, not mid-campaign
        self.backend = backend
        if workers < 0:
            raise ConfigurationError("workers must be >= 0 (0 = in-process)")
        self.jobs = sorted(jobs, key=lambda j: j.job_id)
        ids = [job.job_id for job in self.jobs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate jobs in campaign matrix")
        if workers == 0 and any(job.fault == "exit" for job in self.jobs):
            raise ConfigurationError(
                "fault='exit' drills need workers >= 1: in-process mode "
                "would kill the orchestrator itself")
        self.workers = workers
        # normalised to the dict form so it pickles to pool workers; a
        # plan also disables the result cache entirely — payloads produced
        # under injection must never poison (or be served from) the
        # content-addressed store, whose keys don't cover the plan
        if isinstance(fault_plan, FaultPlan):
            fault_plan = fault_plan.to_dict()
        elif fault_plan is not None:
            fault_plan = FaultPlan.from_dict(fault_plan).to_dict()
        self.fault_plan = fault_plan
        if fault_plan is not None:
            cache_dir = None
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.store = ResultStore(campaign_dir) if campaign_dir else None
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        self.resume = resume
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError(
                "deadline_s must be positive (or None for no deadline)")
        self.deadline_s = deadline_s
        self._should_stop: Optional[StopCheck] = None
        #: why this run stopped early (a worker stop reason), else None
        self._stop_reason: Optional[str] = None
        # periodic mid-run checkpoints: a crashed/hung/killed attempt
        # resumes from its last intact checkpoint instead of cycle 0
        self.checkpoint: Optional[Dict] = None
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ConfigurationError(
                    "checkpoint_every must be >= 1 cycle")
            if campaign_dir is None:
                raise ConfigurationError(
                    "checkpoint_every needs a campaign_dir to keep the "
                    "checkpoint files in")
            self.checkpoint = {
                "dir": os.path.join(campaign_dir, "checkpoints"),
                "every": int(checkpoint_every),
            }
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # a worker drops the telemetry it inherits and freezes its
            # heap, so _pool_task's collections skip it
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=start_forked_worker)
        return self._pool

    def _retire_pool(self, broken: bool = False) -> None:
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        if broken:
            # the interpreter joins every pool worker at exit, so a stuck
            # one must be ended (the table terminate_broken walks too)
            for process in list((pool._processes or {}).values()):
                process.kill()
        # a broken/stuck pool must not be waited on — abandon it
        pool.shutdown(wait=not broken, cancel_futures=broken)

    # -- execution rounds ----------------------------------------------------
    @staticmethod
    def _synthetic_failure(job: CampaignJob, attempt: int,
                           error: str) -> Dict:
        return shard_outcome(job.to_dict(), "error", attempt, error=error,
                             trace=error, pid=None)

    def _stopped(self) -> bool:
        """Consult ``should_stop`` between rounds; True once stopped."""
        if self._stop_reason is None and self._should_stop is not None:
            self._stop_reason = self._should_stop()
        return self._stop_reason is not None

    def _run_round(self, jobs: Sequence[CampaignJob],
                   attempt: int) -> Iterator[Dict]:
        """Execute one round, one task per job, surviving pool breakage.

        Yields each job's outcome as soon as it is in, so the caller
        records it before the next job is waited on.  Outcomes come in
        job order until a job exceeds ``timeout_s``: its failure comes
        next, then the later results already in, and the jobs still
        running or queued run again on a fresh pool at the same attempt,
        so only the job that ran out of time is charged.  A dead worker
        charges every job whose result had not come back: the culprit is
        unknown.
        """
        if self.workers == 0:
            for job in jobs:
                (outcome,) = run_shard([job.to_dict()], attempt,
                                       self.fault_plan, self.checkpoint,
                                       self._should_stop, self.backend)
                yield outcome
                # a stopped outcome ends the round: later jobs stay
                # pending (resumable after a STOP, moot after a deadline)
                if outcome["status"] in STOP_REASONS:
                    return
            return

        while jobs:
            pool = self._ensure_pool()
            # _should_stop is a campaign_stop partial (or None): it pickles
            futures = [(pool.submit(_pool_task, job.to_dict(), attempt,
                                    self.fault_plan, self.checkpoint,
                                    self._should_stop, self.backend), job)
                       for job in jobs]
            jobs, abandon = [], False
            for index, (future, job) in enumerate(futures):
                try:
                    (outcome,) = future.result(self.timeout_s)
                except FutureTimeoutError:
                    # the error text names the task, a one-job shard
                    yield self._synthetic_failure(
                        job, attempt,
                        f"timeout: shard exceeded {self.timeout_s:.1f} s")
                    for later, later_job in futures[index + 1:]:
                        if later.done() and later.exception() is None:
                            yield later.result()[0]
                        else:
                            jobs.append(later_job)
                    abandon = True     # a worker is stuck in there
                    break
                except BrokenProcessPool:
                    outcome = self._synthetic_failure(
                        job, attempt, "worker process died")
                    abandon = True
                yield outcome
            if abandon:
                self._retire_pool(broken=True)

    # -- record plumbing -----------------------------------------------------
    def _finish(self, job: CampaignJob, record: Dict,
                records: Dict[str, Dict], metrics: CampaignMetrics) -> None:
        records[job.job_id] = record
        metrics.note_record(record)
        # a resumed record is in the store already: the resume wrote it
        if self.store is not None and record["source"] != "resumed":
            self.store.append(record)
        tel = _obs._active
        if tel is not None:
            tel.emit("job.done", job_id=job.job_id,
                     status=record["status"],
                     source=record.get("source", "executed"),
                     attempts=record.get("attempts", 0))
            if record["status"] == "ok":
                self._profile_instants(tel, job, record["payload"])

    @staticmethod
    def _profile_instants(tel, job: CampaignJob, payload: Dict) -> None:
        """Per-customer profile summary instants on the trace timeline.

        Derived purely from the (byte-identical) payload, so the values
        are the same for executed, cached, resumed, scalar, and batch
        records — which is what makes the trace store's per-(customer,
        signal) series deterministic and cross-run diffing exact, while
        wall-clock span durations stay informational.
        """
        profile = payload.get("profile") or {}
        parameters = profile.get("parameters") or {}
        stall_events = 0
        degraded = 0
        for signal in sorted(parameters):
            entry = parameters[signal]
            entry_degraded = len(entry.get("degraded", ()))
            degraded += entry_degraded
            tel.instant("job.profile", cat="fleet", job=job.name,
                        signal=signal,
                        mean_rate=entry.get("mean_rate", 0.0),
                        samples=entry.get("samples", 0),
                        degraded=entry_degraded)
            if signal == "tc.load_stall_rate":
                stall_events = int(sum(entry.get("values", ())))
        tel.instant("job.stats", cat="fleet", job=job.name,
                    lost=int(profile.get("lost_messages", 0)),
                    gaps=len(profile.get("gaps", ())),
                    degraded=degraded, stall_events=stall_events,
                    trace_bits=int(profile.get("trace_bits", 0)))

    # -- the campaign --------------------------------------------------------
    def run(self) -> CampaignReport:
        start = time.perf_counter()
        self._stop_reason = None
        # one picklable check of the campaign dir's STOP file and the
        # deadline, armed here as absolute wall-clock time
        directory = None if self.store is None else self.store.directory
        deadline_at = None if self.deadline_s is None else (
            time.time() + self.deadline_s)
        self._should_stop = None
        if directory is not None or deadline_at is not None:
            self._should_stop = partial(campaign_stop, directory, deadline_at)
        tel = _obs._active
        campaign_t0 = tel.tracer.now_us() if tel is not None else 0.0
        if tel is not None:
            tel.emit("campaign.start", total_jobs=len(self.jobs),
                     workers=self.workers, resume=self.resume,
                     faulted=self.fault_plan is not None)
        metrics = CampaignMetrics(total_jobs=len(self.jobs),
                                  workers=max(1, self.workers))
        records: Dict[str, Dict] = {}
        by_id = {job.job_id: job for job in self.jobs}

        # resume: the completed records of a previous (killed) run
        # replace the store in one atomic rewrite, so a kill here leaves
        # the old store or the new one; without resume it starts empty
        resumed = []
        if self.store is not None:
            if self.resume:
                resumed = [job_record(
                    by_id[r["job_id"]], "ok", "resumed",
                    r.get("attempts", 1), 0.0, payload=r["payload"])
                    for r in self.store.load()
                    if r.get("status") == "ok" and r.get("job_id") in by_id]
            self.store.rewrite(resumed)
        for record in resumed:
            self._finish(by_id[record["job_id"]], record, records, metrics)

        # content-addressed cache: hits never reach the pool
        for job in self.jobs:
            if job.job_id in records or self.cache is None:
                continue
            payload = self.cache.lookup(job)
            if payload is not None:
                self._finish(job, job_record(job, "ok", "cache", 0, 0.0,
                                             payload=payload),
                             records, metrics)

        pending = [job for job in self.jobs if job.job_id not in records]

        # round 0: one task per job, in job order
        failures: Dict[str, Dict] = {}
        if pending and self._stopped():
            # stale (or stopped) before a single job ran — never
            # silently run it
            pending = []
        if pending:
            for outcome in self._run_round(pending, 0):
                self._absorb(outcome, records, metrics, failures)

        # retry rounds: each failure should_retry allows runs again at
        # once, alone and one at a time; the rest stay failed
        for attempt in itertools.count(1):
            retry = sorted(job_id for job_id, outcome in failures.items()
                           if should_retry(outcome, self.max_retries))
            if not retry or self._stopped():
                break
            if tel is not None:
                tel.emit("round.retry", attempt=attempt, jobs=retry)
            retried = {job_id: failures.pop(job_id) for job_id in retry}
            for job_id in retry:
                for outcome in self._run_round([by_id[job_id]], attempt):
                    self._absorb(outcome, records, metrics, failures,
                                 retried[job_id]["wall_s"])

        # whatever still fails is quarantined — the campaign survives it.
        # Under a STOP nothing is quarantined: unfinished jobs (and even
        # failed ones) get a fresh start on the resumed run.  Under
        # a deadline nothing is quarantined either — the submission is
        # terminal, and "didn't finish in time" is not a job defect.
        stopped_early = self._stop_reason is not None
        for job_id in [] if stopped_early else sorted(failures):
            outcome = failures[job_id]
            job = by_id[job_id]
            if tel is not None:
                tel.instant("job.quarantined", cat="fleet",
                            job_id=job.job_id, error=outcome["error"])
            self._finish(job, job_record(
                job, "quarantined", "executed", outcome["attempt"] + 1,
                outcome["wall_s"], error=outcome["error"]), records, metrics)

        self._retire_pool()
        metrics.wall_s = time.perf_counter() - start

        # under a STOP only the completed prefix has records; the
        # aggregate (the byte-identity artifact) is only ever written by
        # the run that finishes the campaign
        ordered = [records[job.job_id] for job in self.jobs
                   if job.job_id in records]
        report = CampaignReport(
            records=ordered, metrics=metrics,
            preempted=self._stop_reason == "stopped",
            deadline_exceeded=self._stop_reason == "deadline")
        if self.store is not None:
            report.store_path = self.store.path
            if not stopped_early:
                report.aggregate_path = self.store.write_aggregate(
                    report.ok_records, report.quarantined)
        if tel is not None:
            # registry counters are folded exactly once, here, from the
            # final metrics snapshot — live hooks above only record spans
            # and events, so nothing double-counts
            _obs_bridge.record_campaign_metrics(tel.registry, metrics)
            tel.tracer.complete(
                "campaign", campaign_t0,
                tel.tracer.now_us() - campaign_t0, "fleet",
                args={"total_jobs": metrics.total_jobs,
                      "executed": metrics.executed,
                      "cache_hits": metrics.cache_hits,
                      "resumed": metrics.resumed,
                      "quarantined": metrics.quarantined})
            tel.emit("campaign.end", total_jobs=metrics.total_jobs,
                     executed=metrics.executed,
                     cache_hits=metrics.cache_hits,
                     resumed=metrics.resumed,
                     quarantined=metrics.quarantined,
                     retries=metrics.retries)
        return report

    @staticmethod
    def _retro_span(tel, job: CampaignJob, outcome: Dict) -> None:
        pid = outcome.get("pid") or 0
        if pid:
            tel.tracer.set_process(pid, f"worker {pid}")
        wall_us = outcome["wall_s"] * 1e6
        tel.tracer.complete(
            "job.execute", max(0.0, tel.tracer.now_us() - wall_us),
            wall_us, "fleet", pid=pid,
            args={"job": job.name, "status": outcome["status"],
                  "attempt": outcome["attempt"]})

    def _absorb(self, outcome: Dict, records: Dict[str, Dict],
                metrics: CampaignMetrics, failures: Dict[str, Dict],
                prior_wall_s: float = 0.0) -> None:
        """Fold one job's outcome into ``records`` (cache entry stored,
        record appended) or ``failures``; its ``wall_s`` adds
        ``prior_wall_s``, the walls of the job's earlier attempts."""
        tel = _obs._active
        job = CampaignJob.from_dict(outcome["job"])
        if "checkpoint" in outcome:
            metrics.note_checkpoint(outcome["checkpoint"])
        if outcome["status"] in STOP_REASONS:
            # not a job failure.  "stopped": the partial progress is on
            # disk as a checkpoint and the campaign is offered again
            # (resume=True) once the STOP file is gone; "deadline":
            # terminal for the submission, so the campaign stops here
            # instead of running stale work
            self._stop_reason = outcome["status"]
            if tel is not None:
                event = "job." + outcome["status"]   # job.stopped, ...
                tel.instant(event, cat="fleet", job_id=job.job_id)
                tel.emit(event, job_id=job.job_id,
                         attempt=outcome["attempt"])
            return
        if tel is not None and self.workers > 0:
            # pool workers empty the telemetry slot they inherit, so
            # their job spans are retro-emitted here from the reported in-worker
            # wall clock (workers=0 records live spans)
            self._retro_span(tel, job, outcome)
        wall_s = outcome["wall_s"] + prior_wall_s
        if outcome["status"] == "ok":
            if self.cache is not None:
                self.cache.store(job, outcome["payload"])
            self._finish(job, job_record(
                job, "ok", "executed", outcome["attempt"] + 1, wall_s,
                payload=outcome["payload"]), records, metrics)
        else:
            failures[job.job_id] = dict(outcome, wall_s=wall_s)
