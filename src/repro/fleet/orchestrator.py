"""Campaign orchestrator: fans a job matrix over a fault-tolerant pool.

Execution model
---------------

* Jobs are deterministically sharded (:func:`repro.fleet.spec.assign_shards`)
  and each shard is one ``run_shard`` task on a ``ProcessPoolExecutor``.
  Workers isolate failures per job, so a raising job returns a structured
  error outcome instead of killing its shard.
* Failed jobs are retried with exponential backoff, one single-job shard
  at a time (so a poison job can only hurt itself).  A job that exhausts
  its retry budget is **quarantined**: recorded with its error and
  excluded from the aggregate, while every other job completes normally.
* A worker process dying outright (or a shard exceeding its timeout)
  breaks the pool; the orchestrator records synthetic failures for the
  affected shard, abandons the pool, and continues on a fresh one.
* Before anything is submitted, each job is looked up in the
  content-addressed :class:`~repro.fleet.cache.ResultCache` and, under
  ``resume=True``, in the campaign's JSONL store — hits never reach the
  pool, which is why a warm re-run executes zero jobs.

* In-process runs (``workers=0``) support **cooperative preemption**: a
  ``should_yield`` callback is consulted between jobs and at every
  checkpoint boundary; when it fires, the run stops early with
  ``CampaignReport.preempted=True`` — completed records durable in the
  store, the interrupted job's checkpoint on disk — and a later
  ``resume=True`` run finishes the campaign byte-identically.  This is
  how ``repro.serve`` evicts a low-priority campaign under load.
  ``run()`` folds the callback and the ``deadline_s`` deadline into the
  one ``should_stop() -> reason`` the workers consult (see
  :mod:`repro.fleet.worker`); only the deadline half crosses the pool.

Results are bit-identical regardless of worker count: every job builds
its own seeded device, and the aggregate artifact is written sorted by
content-derived job id with timing metadata excluded.
"""

from __future__ import annotations

import os
import random
import time
import zlib
from concurrent.futures import ProcessPoolExecutor, TimeoutError as \
    FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..faults import FaultPlan
from ..obs import bridge as _obs_bridge
from ..obs import runtime as _obs
from .cache import ResultCache
from .metrics import CampaignMetrics
from .spec import CampaignJob, assign_shards
from .store import ResultStore, job_record
from .worker import (STOP_REASONS, StopCheck, deadline_stop,
                     run_batch_shard, run_shard, shard_outcome)


@dataclass
class CampaignReport:
    """Everything a campaign run produced.

    ``preempted=True`` means the run stopped early at a safe boundary
    (the orchestrator's ``should_yield`` fired): every completed record
    is durable in the store, the interrupted job's checkpoint is on
    disk, and no aggregate was written — a later ``resume=True`` run
    finishes the campaign byte-identically.
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
                 backoff_s: float = 0.25,
                 max_backoff_s: float = 5.0,
                 timeout_s: Optional[float] = None,
                 resume: bool = False,
                 fault_plan: Optional[Dict] = None,
                 checkpoint_every: Optional[int] = None,
                 should_yield: Optional[Callable[[], bool]] = None,
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
        if should_yield is not None and workers != 0:
            raise ConfigurationError(
                "should_yield needs workers=0: a live callback cannot "
                "cross the process-pool pickle boundary")
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
        self.max_retries = max_retries
        if max_backoff_s < 0:
            raise ConfigurationError("max_backoff_s must be >= 0")
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        # full-jitter retry backoff, seeded from the (stable) job matrix
        # rather than the global RNG: a retried campaign draws the same
        # delays every run, so nothing about campaign artifacts — which
        # never include wall clock anyway — can drift between repeats
        self._backoff_rng = random.Random(zlib.crc32(
            ",".join(job.job_id for job in self.jobs).encode("utf-8")))
        self.timeout_s = timeout_s
        self.resume = resume
        self.should_yield = should_yield
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
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _retire_pool(self, broken: bool = False) -> None:
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        # a broken/stuck pool must not be waited on — abandon it
        pool.shutdown(wait=not broken, cancel_futures=broken)

    # -- execution rounds ----------------------------------------------------
    @staticmethod
    def _synthetic_failures(shard: Sequence[CampaignJob], attempt: int,
                            error: str) -> List[Dict]:
        return [shard_outcome(job.to_dict(), "error", attempt, error=error,
                              trace=error, pid=None) for job in shard]

    def _shard_timeout(self, shard: Sequence[CampaignJob]) -> Optional[float]:
        if self.timeout_s is None:
            return None
        return self.timeout_s * len(shard)

    def _backoff_delay(self, attempt: int) -> float:
        """Full-jitter exponential backoff with a hard cap.

        ``uniform(0, min(cap, base * 2^(attempt-1)))`` — the AWS full-
        jitter form: retry storms decorrelate instead of thundering in
        lockstep, and a large retry budget can never sleep unboundedly.
        """
        ceiling = min(self.max_backoff_s,
                      self.backoff_s * (2 ** (attempt - 1)))
        return self._backoff_rng.uniform(0.0, ceiling)

    def _stopped(self) -> bool:
        """Consult ``should_stop`` between rounds; True once stopped."""
        if self._stop_reason is None and self._should_stop is not None:
            self._stop_reason = self._should_stop()
        return self._stop_reason is not None

    def _run_round(self, shards: List[List[CampaignJob]],
                   attempt: int) -> List[Dict]:
        """Execute one round of shards, surviving pool breakage."""
        shard_fn = run_batch_shard if self.backend == "batch" else run_shard
        if self.workers == 0:
            outcomes: List[Dict] = []
            for shard in shards:
                outcomes.extend(
                    shard_fn([job.to_dict() for job in shard], attempt,
                             self.fault_plan, self.checkpoint,
                             self._should_stop))
                # a stopped outcome ends the round: later shards stay
                # pending (resumable after a preemption, moot after a
                # deadline)
                if outcomes and outcomes[-1]["status"] in STOP_REASONS:
                    break
            return outcomes

        outcomes = []
        pool = self._ensure_pool()
        # with workers >= 1 there is no yield callback, so _should_stop is
        # at most the deadline partial, which pickles
        futures = [(pool.submit(shard_fn,
                                [job.to_dict() for job in shard], attempt,
                                self.fault_plan, self.checkpoint,
                                self._should_stop),
                    shard) for shard in shards]
        abandon = False
        for future, shard in futures:
            try:
                outcomes.extend(future.result(self._shard_timeout(shard)))
            except FutureTimeoutError:
                outcomes.extend(self._synthetic_failures(
                    shard, attempt,
                    f"timeout: shard exceeded "
                    f"{self._shard_timeout(shard):.1f} s"))
                abandon = True         # a worker is stuck in there
            except BrokenProcessPool:
                outcomes.extend(self._synthetic_failures(
                    shard, attempt, "worker process died"))
                abandon = True
        if abandon:
            self._retire_pool(broken=True)
        return outcomes

    # -- record plumbing -----------------------------------------------------
    def _finish(self, job: CampaignJob, record: Dict,
                records: Dict[str, Dict],
                metrics: Optional[CampaignMetrics] = None) -> None:
        records[job.job_id] = record
        if metrics is not None and record["status"] == "ok":
            metrics.note_payload(record["payload"])
        if self.store is not None:
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
        # the deadline is armed at run start, as absolute wall-clock time
        # in a picklable partial; the yield callback (workers=0 only) is
        # folded in front of it
        deadline = None if self.deadline_s is None else partial(
            deadline_stop, time.time() + self.deadline_s)
        should_yield = self.should_yield
        self._should_stop = deadline if should_yield is None else (
            lambda: "preempted" if should_yield()
            else (deadline and deadline()))
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

        # resume: replay completed records from a previous (killed) run
        prior = []
        if self.store is not None:
            if self.resume:
                prior = [r for r in self.store.load()
                         if r.get("status") == "ok"
                         and r.get("job_id") in by_id]
            self.store.clear()
        for record in prior:
            job = by_id[record["job_id"]]
            metrics.resumed += 1
            self._finish(job, job_record(
                job, "ok", "resumed", record.get("attempts", 1), 0.0,
                payload=record["payload"]), records, metrics)

        # content-addressed cache: hits never reach the pool
        for job in self.jobs:
            if job.job_id in records or self.cache is None:
                continue
            payload = self.cache.lookup(job)
            if payload is not None:
                metrics.cache_hits += 1
                self._finish(job, job_record(job, "ok", "cache", 0, 0.0,
                                             payload=payload),
                             records, metrics)

        pending = [job for job in self.jobs if job.job_id not in records]

        # round 0: deterministic shards over the pool
        failures: Dict[str, Dict] = {}
        fatal: Dict[str, Dict] = {}

        def split_fatal(failed: Dict[str, Dict]) -> Dict[str, Dict]:
            # deterministic failures (retryable=False) skip the retry
            # rounds — backoff cannot fix a configuration error or a
            # cycle-deadline watchdog, so they quarantine immediately
            for job_id in list(failed):
                if not failed[job_id].get("retryable", True):
                    fatal[job_id] = failed.pop(job_id)
            return failed

        if pending and self._stopped():
            # stale (or yielding) before a single job ran — never
            # silently run it
            pending = []
        if pending:
            if self.backend == "batch":
                # pack cache-missed jobs into lane groups: every job
                # sharing a group key rides one worker invocation, so the
                # lane simulator sees the whole portfolio at once
                from ..batch import group_key
                groups: Dict[tuple, List[CampaignJob]] = {}
                for job in pending:
                    groups.setdefault(group_key(job.to_dict()),
                                      []).append(job)
                shards = list(groups.values())
            else:
                n_shards = max(1, min(len(pending),
                                      max(1, self.workers) * 2))
                shards = assign_shards(pending, n_shards)
            outcomes = self._run_round(shards, 0)
            failures = split_fatal(self._absorb(outcomes, records, metrics))

        # retry rounds: failed jobs individually, one at a time
        for attempt in range(1, self.max_retries + 1):
            if not failures or self._stopped():
                break
            time.sleep(self._backoff_delay(attempt))
            if self._stopped():
                break
            metrics.retries += len(failures)
            if tel is not None:
                tel.emit("round.retry", attempt=attempt,
                         jobs=sorted(failures, key=str))
            retry_jobs = sorted(failures, key=str)
            outcomes = []
            for job_id in retry_jobs:
                outcomes.extend(
                    self._run_round([[by_id[job_id]]], attempt))
            failures = split_fatal(self._absorb(outcomes, records, metrics,
                                                prior_failures=failures))

        # whatever still fails is quarantined — the campaign survives it.
        # Under preemption nothing is quarantined: unfinished jobs (and
        # even failed ones) get a fresh start on the resumed run.  Under
        # a deadline nothing is quarantined either — the submission is
        # terminal, and "didn't finish in time" is not a job defect.
        stopped_early = self._stop_reason is not None
        leftovers = {} if stopped_early else dict(fatal)
        if not stopped_early:
            leftovers.update(failures)
        for job_id in sorted(leftovers):
            outcome = leftovers[job_id]
            job = by_id[job_id]
            metrics.quarantined += 1
            if tel is not None:
                tel.instant("job.quarantined", cat="fleet",
                            job_id=job.job_id, error=outcome["error"])
            self._finish(job, job_record(
                job, "quarantined", "executed", outcome["attempt"] + 1,
                outcome["wall_s"], error=outcome["error"]), records, metrics)

        self._retire_pool()
        metrics.wall_s = time.perf_counter() - start

        # under preemption only the completed prefix has records; the
        # aggregate (the byte-identity artifact) is only ever written by
        # the run that finishes the campaign
        ordered = [records[job.job_id] for job in self.jobs
                   if job.job_id in records]
        report = CampaignReport(
            records=ordered, metrics=metrics,
            preempted=self._stop_reason == "preempted",
            deadline_exceeded=self._stop_reason == "deadline")
        if self.store is not None:
            self.store.rewrite(ordered)
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

    def _absorb(self, outcomes: List[Dict], records: Dict[str, Dict],
                metrics: CampaignMetrics,
                prior_failures: Optional[Dict[str, Dict]] = None
                ) -> Dict[str, Dict]:
        """Fold a round's outcomes into records; return remaining failures."""
        failures: Dict[str, Dict] = {}
        tel = _obs._active
        for outcome in outcomes:
            job = CampaignJob.from_dict(outcome["job"])
            metrics.busy_s += outcome["wall_s"]
            if "checkpoint" in outcome:
                metrics.note_checkpoint(outcome["checkpoint"])
            if outcome["status"] in STOP_REASONS:
                # not a job failure.  "preempted": the partial progress
                # is on disk as a checkpoint and the campaign is offered
                # again (resume=True) once the pressure clears;
                # "deadline": terminal for the submission, so the
                # campaign stops here instead of running stale work
                self._stop_reason = outcome["status"]
                if tel is not None:
                    event = "job." + outcome["status"]   # job.deadline, ...
                    tel.instant(event, cat="fleet", job_id=job.job_id)
                    tel.emit(event, job_id=job.job_id,
                             attempt=outcome["attempt"])
                continue
            if tel is not None and self.workers > 0:
                # pool workers don't inherit the telemetry slot, so their
                # job spans are retro-emitted here from the reported
                # in-worker wall clock (workers=0 records live spans)
                self._retro_span(tel, job, outcome)
            if outcome["status"] == "ok":
                metrics.executed += 1
                metrics.job_walls.append(outcome["wall_s"])
                metrics.sim_cycles += int(
                    outcome["payload"].get("sim_cycles", 0))
                if self.cache is not None:
                    self.cache.store(job, outcome["payload"])
                self._finish(job, job_record(
                    job, "ok", "executed", outcome["attempt"] + 1,
                    outcome["wall_s"], payload=outcome["payload"]), records,
                    metrics)
            else:
                carried = dict(outcome)
                if prior_failures and job.job_id in prior_failures:
                    carried["wall_s"] += prior_failures[job.job_id]["wall_s"]
                failures[job.job_id] = carried
        return failures
