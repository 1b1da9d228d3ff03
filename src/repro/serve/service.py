"""The always-on campaign service: admission, scheduling, execution.

:class:`CampaignService` is the standing measurement infrastructure the
MCDS/ED substrate models in hardware (PAPERS.md): clients submit
statistical customer profiles at any time, a priority queue with
weighted-fair tenant interleaving feeds execution slots, and results
stream back while simulation is still running.

Execution model
---------------

* Each campaign runs through the ordinary fleet orchestrator
  (:func:`repro.fleet.api.run_campaign`) with ``workers=0`` inside a
  dedicated executor thread — one slot, one thread, one campaign at a
  time per slot.  Nothing about the science changes: the service is a
  scheduler wrapped around the exact computation ``repro campaign`` runs.
* **Preemption**: when a strictly higher-priority campaign is waiting
  and no slot is free, the lowest-priority running campaign is asked to
  stop: the service writes the ``STOP`` file into its directory
  (:func:`repro.fleet.store.request_stop`), which the runner, or the
  cluster nodes, read at the next checkpoint or job boundary, leaving
  the store prefix and the in-flight job's checkpoint on disk; the
  evicted campaign re-enters the queue and later *resumes* — completed
  jobs replayed from the store, the interrupted job continued from its
  checkpoint, final artifacts byte-identical to an uninterrupted run.
* **Streaming**: every lifecycle event and per-job result is pushed as
  one JSON record into the campaign's replayable SSE buffer; results
  are discovered by *tailing the campaign's JSONL store while the
  runner appends to it* (:meth:`repro.fleet.store.ResultStore.tail`).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..cluster.coordinator import MANIFEST_NAME
from ..errors import (ConfigurationError, QuotaExceeded,
                      ServiceUnavailable)
from ..fleet.api import CampaignSpec, run_campaign
from ..fleet.spec import canonical_json
from ..fleet.store import ResultStore, clear_stop, request_stop
from ..obs import bridge as _obs_bridge
from ..obs.events import EventLog
from ..obs.registry import MetricsRegistry
from ..obs.runtime import _register_core_families
from ..resilience import (AdmissionJournal, CircuitBreaker,
                          compaction_records, fold_journal)
from .catalog import build_catalog, load_catalog
from .queue import FairQueue
from .quota import QuotaManager
from .stream import EventBuffer

#: campaign lifecycle states
QUEUED = "queued"
RUNNING = "running"
EVICTING = "evicting"            # STOP written, waiting for the boundary
COMPLETED = "completed"
FAILED = "failed"
DEADLINE_EXCEEDED = "deadline_exceeded"

TERMINAL = (COMPLETED, FAILED, DEADLINE_EXCEEDED)

#: how often the result tailer polls a running campaign's store
TAIL_INTERVAL_S = 0.05


@dataclass
class Campaign:
    """One submitted campaign and everything the service tracks for it."""

    campaign_id: str
    tenant: str
    priority: int
    spec: CampaignSpec
    directory: str
    state: str = QUEUED
    jobs_total: int = 0
    attempts: int = 0             # scheduling attempts (1 + evictions)
    evictions: int = 0
    idempotency_key: Optional[str] = None
    deadline_at: Optional[float] = None   # absolute wall clock (time.time)
    recovered: bool = False       # rebuilt from the journal after a crash
    error: Optional[str] = None
    aggregate_path: Optional[str] = None
    trace_path: Optional[str] = None      # sealed .rtrace segment, if any
    quarantined: List[str] = field(default_factory=list)
    buffer: EventBuffer = field(default_factory=EventBuffer)
    store: ResultStore = field(init=False)
    tail_offset: int = 0
    streamed_jobs: Set[str] = field(default_factory=set)
    results_streamed: int = 0
    #: the next event's sequence number, and the clock its ``t`` counts from
    seq: int = field(default=0, init=False)
    epoch: float = field(default_factory=time.perf_counter, init=False)

    def __post_init__(self) -> None:
        self.store = ResultStore(self.directory)

    def emit(self, event: str, **fields_) -> None:
        """Push one event record into the SSE buffer, as the JSON line
        :class:`repro.obs.events.EventLog` renders; nothing else keeps
        it."""
        record = {"run_id": self.campaign_id, "seq": self.seq,
                  "t": round(time.perf_counter() - self.epoch, 6),
                  "event": event}
        record.update(fields_)
        self.seq += 1
        self.buffer.push(event, json.dumps(record, sort_keys=True))

    def status(self) -> Dict:
        return {
            "id": self.campaign_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "jobs_total": self.jobs_total,
            "results_streamed": self.results_streamed,
            "attempts": self.attempts,
            "evictions": self.evictions,
            "error": self.error,
            "quarantined": list(self.quarantined),
            "deadline_at": self.deadline_at,
            "recovered": self.recovered,
            "trace_path": self.trace_path,
            "spec": self.spec.to_dict(),
        }


class CampaignService:
    """Queue + quota + slots around the fleet orchestrator.

    Create, ``await start()``, submit via :meth:`submit` (the HTTP layer
    calls it), ``await stop()``.  All scheduling runs on the asyncio
    loop; campaign execution runs in ``slots`` executor threads.
    """

    def __init__(self, root: str,
                 quota: Optional[QuotaManager] = None,
                 slots: int = 1,
                 checkpoint_every: int = 5_000,
                 max_retries: int = 1,
                 cache_dir: Optional[str] = None,
                 catalog_path: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 clock: Callable[[], float] = time.time,
                 trace_store: Optional[str] = None,
                 cluster_nodes: int = 0) -> None:
        if slots < 1:
            raise ConfigurationError("service needs at least one slot")
        if checkpoint_every < 1:
            raise ConfigurationError("checkpoint_every must be >= 1")
        if cluster_nodes < 0:
            raise ConfigurationError("cluster_nodes must be >= 0 "
                                     "(0 = in-process orchestrator)")
        #: >0 routes each campaign through repro.cluster: N worker node
        #: subprocesses over the campaign directory, surviving node death
        self.cluster_nodes = cluster_nodes
        self.root = root
        os.makedirs(os.path.join(root, "campaigns"), exist_ok=True)
        self.quota = quota if quota is not None else QuotaManager()
        self.queue = FairQueue(weight_of=self.quota.weight)
        self.slots = slots
        self.checkpoint_every = checkpoint_every
        self.max_retries = max_retries
        self.cache_dir = cache_dir
        self.trace_store = trace_store
        if trace_store:
            os.makedirs(trace_store, exist_ok=True)
        # the telemetry slot is process-global, so at most one slot thread
        # records a trace at a time; the lock is taken non-blocking and a
        # loser simply runs untraced (science unchanged either way)
        self._trace_lock = threading.Lock()
        self.catalog = (load_catalog(catalog_path) if catalog_path
                        else build_catalog())
        if registry is None:
            registry = MetricsRegistry()
            _register_core_families(registry)
        self.registry = registry
        self.campaigns: Dict[str, Campaign] = {}
        self.started_at = time.time()
        self._clock = clock
        self._seq = 0
        self._running_campaigns: Dict[str, Campaign] = {}
        self._tasks: Set[asyncio.Task] = set()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._wake = asyncio.Event()
        self._scheduler_task: Optional[asyncio.Task] = None
        self._stopping = False
        # resilience: write-ahead journal + admission circuit breaker.
        # The seq watermark and idempotency map are rebuilt eagerly so
        # even a pre-start() submit can never mint a colliding cmp id;
        # queue/campaign *reconstruction* waits for start() (needs the
        # loop).
        self.events = EventLog("serve")
        self.journal = AdmissionJournal(root)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.breaker._on_transition = self._on_breaker_transition
        self._idempotency: Dict[Tuple[str, str], str] = {}
        self._recovered_state = fold_journal(self.journal.replay())
        self._seq = self._recovered_state.max_seq
        self._idempotency.update(self._recovered_state.idempotency)
        _obs_bridge.record_breaker_state(self.registry, self.breaker)

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        if self._scheduler_task is not None:
            return
        self._stopping = False
        self._recover()
        self._pool = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix="repro-serve")
        self._scheduler_task = asyncio.ensure_future(self._scheduler())
        self._wake.set()

    # -- crash recovery ------------------------------------------------------
    def _recover(self) -> None:
        """Rebuild campaigns, queue, and accounting from the journal.

        Terminal campaigns come back as terminal records (their on-disk
        aggregate re-attached when it survived); queued *and previously
        running* campaigns re-enter the queue — a recovered running
        campaign keeps its journaled attempt count, so its next dispatch
        resumes from the store prefix + checkpoint exactly like an
        eviction would, and the resumed artifacts stay byte-identical.
        """
        state, self._recovered_state = self._recovered_state, None
        if state is None or not state.campaigns:
            return
        requeued = terminal = unrecoverable = 0
        for entry in sorted(state.campaigns.values(),
                            key=lambda e: e.order):
            if entry.campaign_id in self.campaigns:
                continue             # admitted pre-start in this process
            try:
                spec = CampaignSpec.from_dict(entry.spec)
            except Exception as exc:
                unrecoverable += 1
                warnings.warn(
                    f"recovery: journaled spec for {entry.campaign_id} "
                    f"no longer builds ({exc}); leaving its directory "
                    f"for inspection", RuntimeWarning)
                self._count_recovered("unrecoverable")
                continue
            directory = os.path.join(self.root, "campaigns",
                                     entry.campaign_id)
            os.makedirs(directory, exist_ok=True)
            campaign = Campaign(
                campaign_id=entry.campaign_id, tenant=entry.tenant,
                priority=entry.priority, spec=spec, directory=directory,
                idempotency_key=entry.idempotency_key,
                deadline_at=entry.deadline_at, recovered=True)
            campaign.jobs_total = len(spec.build_jobs())
            campaign.attempts = entry.attempts
            self.campaigns[entry.campaign_id] = campaign
            if entry.state in TERMINAL:
                campaign.state = entry.state
                if entry.state == COMPLETED and \
                        os.path.exists(campaign.store.aggregate_path):
                    campaign.aggregate_path = campaign.store.aggregate_path
                campaign.buffer.close()
                terminal += 1
                self._count_recovered("terminal")
                continue
            # queued / running / evicting at crash time → queued again.
            # attempts >= 1 marks "has dispatched before": the next run
            # goes down the resume path instead of clearing the store.
            if entry.state in (RUNNING, EVICTING):
                campaign.attempts = max(1, entry.attempts)
            campaign.state = QUEUED
            self.queue.push(entry.campaign_id, entry.tenant,
                            entry.priority,
                            cost=max(1.0, float(campaign.jobs_total)))
            campaign.emit("campaign.recovered",
                          prior_state=entry.state,
                          attempts=campaign.attempts)
            requeued += 1
            self._count_recovered("requeued")
        # compact: the journal now needs one admit (+ maybe one state)
        # per campaign, not the full transition history since epoch.
        # Re-fold from the live file, not the __init__-time snapshot —
        # submissions admitted before start() must survive the rewrite.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            self.journal.rewrite(
                compaction_records(fold_journal(self.journal.replay())))
        self._gauge_queue()
        if requeued or terminal or unrecoverable:
            self.events.emit("service.recovered", requeued=requeued,
                             terminal=terminal,
                             unrecoverable=unrecoverable,
                             seq_watermark=self._seq)

    # -- breaker wiring ------------------------------------------------------
    def _on_breaker_transition(self, old: str, new: str) -> None:
        self.registry.get("repro_resilience_breaker_transitions_total") \
            .labels(new).inc()
        _obs_bridge.record_breaker_state(self.registry, self.breaker)
        self.events.emit("breaker.transition", old=old, new=new,
                         failure_rate=round(self.breaker.failure_rate(), 4))

    def _count_recovered(self, disposition: str) -> None:
        self.registry.get("repro_resilience_recovered_total") \
            .labels(disposition).inc()

    def _journal_state(self, campaign: Campaign, state: str) -> None:
        """Durably record a transition *before* it takes effect."""
        self.journal.state(campaign.campaign_id, state,
                           attempts=campaign.attempts)
        self.registry.get("repro_resilience_journal_records_total") \
            .labels("state").inc()

    async def stop(self) -> None:
        """Graceful shutdown: evict running work at safe boundaries."""
        self._stopping = True
        for campaign in list(self._running_campaigns.values()):
            self._ask_to_yield(campaign)
        self._wake.set()
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            try:
                await self._scheduler_task
            except asyncio.CancelledError:
                pass
            self._scheduler_task = None
        for task in list(self._tasks):
            try:
                await asyncio.wait_for(task, timeout=60)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                task.cancel()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- admission -----------------------------------------------------------
    def submit(self, tenant: str, payload: Dict,
               idempotency_key: Optional[str] = None) -> Campaign:
        """Admit one campaign submission (raises on quota/spec errors).

        A repeated ``idempotency_key`` for the same tenant returns the
        *original* campaign — no quota draw, no new admission — so a
        client that lost the response to a network blip can retry
        ``POST /v1/campaigns`` safely, even across a service restart
        (the key map is journaled).
        """
        if self._stopping:
            # a drain is an availability condition, not a quota verdict:
            # 503, retryable against the replacement process
            raise ServiceUnavailable("service is shutting down",
                                     retry_after_s=5.0)
        if idempotency_key is not None:
            known = self._idempotency.get((tenant, idempotency_key))
            if known is not None and known in self.campaigns:
                self.registry.get(
                    "repro_resilience_idempotent_replays_total").inc()
                self.events.emit("admission.replayed", tenant=tenant,
                                 campaign_id=known)
                return self.campaigns[known]
        if not self.breaker.allow():
            self._count_campaign(tenant, "shed")
            self.registry.get("repro_resilience_shed_total").inc()
            self.events.emit("admission.shed", tenant=tenant,
                             breaker_state=self.breaker.state)
            raise ServiceUnavailable(
                f"service is shedding load "
                f"(circuit breaker {self.breaker.state}, recent failure "
                f"rate {self.breaker.failure_rate():.0%})",
                retry_after_s=self.breaker.retry_after_s())
        body = dict(payload)
        priority = body.pop("priority", 0)
        try:
            priority = int(priority)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"priority must be an integer, got {priority!r}")
        spec = CampaignSpec.from_dict(body)
        active = sum(1 for c in self.campaigns.values()
                     if c.tenant == tenant and c.state not in TERMINAL)
        try:
            self.quota.admit(tenant, active)
        except QuotaExceeded:
            self._count_campaign(tenant, "rejected")
            self._gauge_tokens(tenant)
            raise
        self._gauge_tokens(tenant)
        self._seq += 1
        campaign_id = f"cmp-{self._seq:06d}"
        directory = os.path.join(self.root, "campaigns", campaign_id)
        os.makedirs(directory, exist_ok=True)
        deadline_at = None
        if spec.deadline_s is not None:
            deadline_at = self._clock() + spec.deadline_s
        # write-ahead: the admission is durable before it is visible
        self.journal.admit(campaign_id, tenant, priority, spec.to_dict(),
                           idempotency_key=idempotency_key,
                           deadline_at=deadline_at)
        self.registry.get("repro_resilience_journal_records_total") \
            .labels("admit").inc()
        campaign = Campaign(campaign_id=campaign_id, tenant=tenant,
                            priority=priority, spec=spec,
                            directory=directory,
                            idempotency_key=idempotency_key,
                            deadline_at=deadline_at)
        campaign.jobs_total = len(spec.build_jobs())
        self.campaigns[campaign_id] = campaign
        if idempotency_key is not None:
            self._idempotency[(tenant, idempotency_key)] = campaign_id
        self.queue.push(campaign_id, tenant, priority,
                        cost=max(1.0, float(campaign.jobs_total)))
        self._count_campaign(tenant, "admitted")
        self._gauge_queue()
        campaign.emit("campaign.queued", tenant=tenant, priority=priority,
                      jobs_total=campaign.jobs_total,
                      deadline_at=deadline_at)
        self._wake.set()
        if deadline_at is not None:
            self._arm_deadline_wakeup(deadline_at)
        return campaign

    def _arm_deadline_wakeup(self, deadline_at: float) -> None:
        """Schedule a scheduler pass just after a deadline lapses, so a
        queued campaign expires on time even on an otherwise idle loop."""
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return                   # no loop yet — the sweep will catch it
        delay = max(0.0, deadline_at - self._clock()) + 0.01
        loop.call_later(delay, self._wake.set)

    def get(self, campaign_id: str) -> Optional[Campaign]:
        return self.campaigns.get(campaign_id)

    def overview(self) -> Dict:
        return {
            "campaigns": [c.status() for c in self.campaigns.values()],
            "queue_depth": len(self.queue),
            "running": sorted(self._running_campaigns),
            "slots": self.slots,
            "breaker": self.breaker.snapshot(),
        }

    # -- metrics helpers -----------------------------------------------------
    def _count_campaign(self, tenant: str, outcome: str) -> None:
        self.registry.get("repro_serve_campaigns_total") \
            .labels(tenant, outcome).inc()

    def _gauge_queue(self) -> None:
        gauge = self.registry.get("repro_serve_queue_depth")
        tenants = {c.tenant for c in self.campaigns.values()}
        for tenant in tenants:
            gauge.labels(tenant).set(self.queue.depth(tenant))
        self.registry.get("repro_serve_running_campaigns") \
            .set(len(self._running_campaigns))

    def _gauge_tokens(self, tenant: str) -> None:
        self.registry.get("repro_serve_tenant_tokens") \
            .labels(tenant).set(self.quota.tokens(tenant))

    # -- scheduling ----------------------------------------------------------
    async def _scheduler(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._stopping:
                continue
            # expire queued work whose deadline lapsed before dispatch
            for campaign in list(self.campaigns.values()):
                if campaign.state == QUEUED and \
                        campaign.deadline_at is not None and \
                        self._clock() > campaign.deadline_at:
                    if self.queue.remove(campaign.campaign_id):
                        self._expire_deadline(campaign, phase="queued")
            # fill free slots in fair-queue order
            while len(self._running_campaigns) < self.slots:
                entry = self.queue.pop()
                if entry is None:
                    break
                campaign = self.campaigns[entry.campaign_id]
                # claim the slot synchronously — the task body runs a
                # tick later, and the loop must not dispatch twice
                self._running_campaigns[campaign.campaign_id] = campaign
                task = asyncio.ensure_future(self._run(campaign))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
            # eviction: strictly higher-priority work waiting, no free slot
            best = self.queue.best_priority()
            if best is not None and \
                    len(self._running_campaigns) >= self.slots:
                victims = [c for c in self._running_campaigns.values()
                           if c.state == RUNNING and c.priority < best]
                if victims:
                    victim = min(victims, key=lambda c: c.priority)
                    victim.state = EVICTING
                    victim.emit("campaign.evicting",
                                displaced_by_priority=best)
                    self._ask_to_yield(victim)
            self._gauge_queue()

    def _ask_to_yield(self, campaign: Campaign) -> None:
        """Stop a running campaign at its next checkpoint boundary: the
        runner and cluster nodes alike read its STOP file."""
        request_stop(campaign.directory)

    def _run_blocking(self, campaign: Campaign):
        """Executed on a slot thread: one orchestrator run."""
        deadline_s = None
        if campaign.deadline_at is not None:
            # pass the *remaining* budget; if it is already spent the
            # runner expires before round 0 and reports deadline_exceeded
            deadline_s = max(1e-6, campaign.deadline_at - self._clock())

        def execute():
            if self.cluster_nodes:
                return self._run_clustered_blocking(campaign, deadline_s)
            return run_campaign(
                campaign.spec,
                workers=0,
                campaign_dir=campaign.directory,
                cache_dir=self.cache_dir,
                max_retries=self.max_retries,
                checkpoint_every=self.checkpoint_every,
                resume=campaign.attempts > 1,
                deadline_s=deadline_s)

        if self.trace_store and self._trace_lock.acquire(blocking=False):
            try:
                from .. import traces
                from ..obs import telemetry
                # one segment per dispatch attempt: an evicted campaign's
                # re-dispatch gets its own file instead of clobbering the
                # sealed one
                path = os.path.join(
                    self.trace_store,
                    f"{campaign.campaign_id}-a{campaign.attempts}.rtrace")
                with telemetry(run_id=campaign.campaign_id) as tel:
                    with traces.recording(tel, path):
                        report = execute()
                # plain attribute write, thread-safe; the asyncio side
                # only reads it for status()
                campaign.trace_path = path
                return report
            finally:
                self._trace_lock.release()
        return execute()

    def _run_clustered_blocking(self, campaign: Campaign,
                                deadline_s: Optional[float]):
        """One campaign attempt over ``cluster_nodes`` worker processes.

        The campaign directory doubles as the cluster directory, so the
        result tailer streams the shared store exactly as in the
        in-process path.  The first attempt submits the manifest; a
        re-dispatch after an eviction reuses it — the nodes' resume
        scan plus the per-job checkpoints make the continuation
        byte-identical, same contract as ``resume=True``.
        """
        from ..cluster import run_clustered
        from ..fleet import jobs_for
        directory = campaign.directory
        jobs = None
        if not os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            jobs = jobs_for(campaign.spec)
        return run_clustered(jobs, directory, nodes=self.cluster_nodes,
                             checkpoint_every=self.checkpoint_every,
                             max_retries=self.max_retries,
                             deadline_s=deadline_s)

    async def _run(self, campaign: Campaign) -> None:
        campaign.attempts += 1
        # cleared here, before the campaign can be seen RUNNING, so no
        # eviction aimed at this attempt can be cleared by it
        clear_stop(campaign.directory)
        self._journal_state(campaign, RUNNING)
        campaign.state = RUNNING
        # each attempt's run replaces the store atomically with the
        # records it resumes before its first job, so the tailer
        # restarts from byte 0 and dedups by job id
        campaign.tail_offset = 0
        self._gauge_queue()
        campaign.emit("campaign.started", attempt=campaign.attempts,
                      resumed=campaign.attempts > 1)
        # re-run the scheduler's eviction check now that this campaign
        # is visibly RUNNING (a high-priority submission may have landed
        # in the gap between slot claim and task start)
        self._wake.set()
        loop = asyncio.get_running_loop()
        tailer = asyncio.ensure_future(self._tail(campaign))
        try:
            report = await loop.run_in_executor(
                self._pool, self._run_blocking, campaign)
            error = None
        except Exception as exc:             # orchestrator-level failure
            report, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            tailer.cancel()
            try:
                await tailer
            except asyncio.CancelledError:
                pass
            # final, complete pass from byte 0: a resumed run replaces
            # the store, perhaps after the tailer's first poll read the
            # previous attempt's store past where the new one has a
            # record boundary; dedup keeps each result to one event
            campaign.tail_offset = 0
            self._drain_results(campaign)
            self._running_campaigns.pop(campaign.campaign_id, None)

        if error is not None:
            self._journal_state(campaign, FAILED)
            campaign.state = FAILED
            campaign.error = error
            self._count_campaign(campaign.tenant, "failed")
            self.breaker.record_failure()
            campaign.emit("campaign.failed", error=error)
            campaign.buffer.close()
        elif report.deadline_exceeded:
            self._expire_deadline(campaign, phase="running")
        elif report.preempted:
            campaign.evictions += 1
            self._journal_state(campaign, QUEUED)
            campaign.state = QUEUED
            self.registry.get("repro_serve_evictions_total").inc()
            self._count_campaign(campaign.tenant, "evicted")
            campaign.emit("campaign.evicted",
                          completed_jobs=len(report.records),
                          evictions=campaign.evictions)
            # back of its tenant's line, same priority — a later
            # dispatch resumes from the store + checkpoint
            self.queue.push(campaign.campaign_id, campaign.tenant,
                            campaign.priority,
                            cost=max(1.0, float(
                                campaign.jobs_total - len(report.records))))
        else:
            self._journal_state(campaign, COMPLETED)
            campaign.state = COMPLETED
            campaign.aggregate_path = report.aggregate_path
            campaign.quarantined = [r["job_id"] for r in report.quarantined]
            # breaker diet: each quarantined job is one failure sample,
            # a clean completion one success — a crash storm trips it,
            # a stray flake does not
            for _ in campaign.quarantined:
                self.breaker.record_failure()
            if not campaign.quarantined:
                self.breaker.record_success()
            self._count_campaign(campaign.tenant, "completed")
            campaign.emit(
                "campaign.completed",
                executed=report.metrics.executed,
                resumed=report.metrics.resumed,
                cache_hits=report.metrics.cache_hits,
                quarantined=campaign.quarantined,
                checkpoint_resumes=report.metrics.checkpoint_resumes,
                cycles_recovered=report.metrics.cycles_recovered,
                evictions=campaign.evictions)
            campaign.buffer.close()
        _obs_bridge.record_breaker_state(self.registry, self.breaker)
        self._gauge_queue()
        self._wake.set()

    def _expire_deadline(self, campaign: Campaign, phase: str) -> None:
        """Terminal expiry: the deadline is a property of the *request*,
        so unlike an eviction there is nothing to resume later."""
        self._journal_state(campaign, DEADLINE_EXCEEDED)
        campaign.state = DEADLINE_EXCEEDED
        campaign.error = (
            f"deadline exceeded while {phase} "
            f"(deadline_s={campaign.spec.deadline_s})")
        self.registry.get("repro_resilience_deadline_exceeded_total") \
            .labels(phase).inc()
        self._count_campaign(campaign.tenant, "deadline_exceeded")
        campaign.emit("campaign.deadline_exceeded", phase=phase,
                      deadline_at=campaign.deadline_at)
        campaign.buffer.close()
        self._gauge_queue()

    # -- live result streaming ----------------------------------------------
    async def _tail(self, campaign: Campaign) -> None:
        """Poll the campaign's store while the runner appends to it."""
        while True:
            self._drain_results(campaign)
            await asyncio.sleep(TAIL_INTERVAL_S)

    def _drain_results(self, campaign: Campaign) -> None:
        records, campaign.tail_offset = campaign.store.tail(
            campaign.tail_offset)
        for record in records:
            job_id = record.get("job_id")
            if job_id is None or job_id in campaign.streamed_jobs:
                continue           # replayed on resume — already streamed
            campaign.streamed_jobs.add(job_id)
            campaign.results_streamed += 1
            self.registry.get("repro_serve_results_streamed_total").inc()
            campaign.emit("job.result", job_id=job_id,
                          status=record.get("status"),
                          source=record.get("source"),
                          digest=record.get("digest"),
                          payload=record.get("payload"))

    # -- result serving ------------------------------------------------------
    def results_page(self, campaign: Campaign, offset: int) -> Dict:
        """Incremental page of the campaign's JSONL store from ``offset``."""
        records, next_offset = campaign.store.tail(offset)
        return {
            "id": campaign.campaign_id,
            "state": campaign.state,
            "records": records,
            "next_offset": next_offset,
            "complete": campaign.state in TERMINAL,
        }

    def aggregate_text(self, campaign: Campaign) -> Optional[str]:
        if campaign.aggregate_path is None:
            return None
        with open(campaign.aggregate_path) as handle:
            return handle.read()


def spec_digest(spec: CampaignSpec) -> str:
    """Content digest of a spec document (client-side dedupe aid)."""
    import hashlib
    return hashlib.sha256(
        canonical_json(spec.to_dict()).encode("utf-8")).hexdigest()
