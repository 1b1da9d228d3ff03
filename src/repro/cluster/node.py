"""Cluster worker node: claim jobs, execute them, survive peers dying.

A :class:`ClusterNode` is one worker *process* cooperating with its
peers purely through the shared cluster directory:

1.  **Plan**: load the manifest, refuse it if another release submitted
    it, and compute the job plan from it (:func:`job_plan` — the same
    on every node, so nothing is elected or published).
2.  **Claim**: walk the plan's jobs, skip done ones, and try each
    job's lease.  Claiming over an expired lease is a *migration* — the
    node inherits the dead peer's checkpoint from the shared checkpoint
    directory and resumes mid-job, byte-identically.
3.  **Execute**: the job runs through the ordinary fleet worker in
    ``checkpoint_every``-cycle chunks.  Each chunk boundary checks the
    ``STOP`` file and the deadline; it saves a checkpoint, and renews
    the lease and **heartbeats**, only once a third of the lease TTL
    has passed since the last save or renewal (the lease clock), and a
    stop always saves first.  A hung simulation renews nothing, so the
    lease TTL bounds the time it can sit on a job.
4.  **Commit**: the record lands via the result store's fenced append;
    a node whose lease was claimed away raises
    :class:`~repro.errors.StaleLeaseError` *inside the store lock* and
    abandons the job without writing a byte.  A committed job is marked
    done and its lease released.
5.  **Finalize**: when every job is done, whoever wins the
    ``finalize`` lease writes the deterministic aggregate — byte-
    identical to a single-node run of the same campaign.

Per-job failures feed a node-local circuit breaker: a node whose own
environment is poisoned (every job crashing) backs off claiming instead
of burning through the retry budget of every job in the plan.
"""

from __future__ import annotations

import gc
import itertools
import os
import time
from functools import partial
from typing import Callable, Dict, List, Optional

from .. import __version__
from ..durable import atomic_write, file_lock, seal_record
from ..errors import CampaignStopped, ClusterError, StaleLeaseError
from ..fleet.cache import ResultCache
from ..fleet.spec import CampaignJob
from ..fleet.store import ResultStore, job_record
# bench/phases.py patches node.execute_job; jobs run through run_shard,
# this module's own binding (bench wraps worker.run_shard)
from ..fleet.worker import execute_job  # noqa: F401
from ..fleet.worker import StopCheck, campaign_stop, run_shard, should_retry
from ..obs import runtime as _obs
from ..resilience.breaker import CircuitBreaker
from ..resilience.journal import AdmissionJournal
from .coordinator import (CACHE_DIR, CHECKPOINT_DIR, CLUSTER_JOURNAL_NAME,
                          NODE_DIR, cluster_status, finalize, is_done,
                          is_final, job_plan, load_manifest, mark_done)
# bench/phases.py patches node.publish_plan (its ``cluster.plan`` span);
# nodes compute the plan with job_plan and publish nothing
from .coordinator import job_plan as publish_plan  # noqa: F401
from .lease import Lease, LeaseManager

#: the one lease resource that is not a job
FINALIZE_RESOURCE = "finalize"

#: node exit summaries (``ClusterNode.run`` return value ``state``)
NODE_DONE = "done"          # campaign finalized (by us or a peer)
NODE_STOPPED = "stopped"    # STOP file honoured at a safe boundary
NODE_DEADLINE = "deadline"  # campaign deadline passed


class ClusterNode:
    """One worker process in a shared-directory cluster campaign."""

    def __init__(self, cluster_dir: str, node_id: Optional[str] = None,
                 ttl_s: float = 10.0, poll_s: float = 0.2,
                 clock: Callable[[], float] = time.time,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.cluster_dir = cluster_dir
        self.node_id = node_id or f"node-{os.getpid()}"
        self.poll_s = float(poll_s)
        self.clock = clock
        self.manifest = load_manifest(cluster_dir)
        if self.manifest.get("version") != __version__:
            raise ClusterError(
                f"cluster manifest in {cluster_dir!r} was submitted by "
                f"repro {self.manifest.get('version')}, this node runs "
                f"{__version__}: job ids and digests hash the release, "
                f"so nodes of different releases cannot share a campaign")
        #: job digest -> job dict in job-id order, the same on every node
        self.jobs = job_plan(self.manifest)
        self.journal = AdmissionJournal(cluster_dir,
                                        name=CLUSTER_JOURNAL_NAME)
        self.leases = LeaseManager(cluster_dir, self.node_id, ttl_s=ttl_s,
                                   clock=clock, journal=self.journal)
        self.store = ResultStore(cluster_dir)
        self.cache = ResultCache(os.path.join(cluster_dir, CACHE_DIR)) \
            if self.manifest.get("cache") else None
        # chunk boundaries every ``every`` cycles; a save only once a
        # third of the TTL has passed, on the renewal clock's cadence
        self.checkpoint = {
            "dir": os.path.join(cluster_dir, CHECKPOINT_DIR),
            "every": int(self.manifest["checkpoint_every"]),
            "every_s": self.leases.ttl_s / 3,
        }
        # part of the shared layout even when no job ever saves
        os.makedirs(self.checkpoint["dir"], exist_ok=True)
        self.deadline_at = self.manifest.get("deadline_at")
        # node-local breaker: generous defaults tuned for "this *node* is
        # sick" (bad mount, poisoned env), not for flaky individual jobs
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            window_s=30.0, min_samples=4, failure_threshold=0.75,
            cooldown_s=0.5, max_cooldown_s=10.0)
        self.jobs_done = 0
        self.fenced = 0
        self._stop_reason: Optional[str] = None
        #: the resume scan's state: committed job ids, and the store
        #: offset they were read up to
        self._committed: set = set()
        self._store_offset = 0

    # -- node heartbeat record ----------------------------------------------
    def _beat(self, state: str) -> None:
        """Publish this node's liveness record (``nodes/<id>.json``)."""
        node_dir = os.path.join(self.cluster_dir, NODE_DIR)
        os.makedirs(node_dir, exist_ok=True)
        atomic_write(
            os.path.join(node_dir, self.node_id + ".json"),
            seal_record({
                "kind": "node", "node": self.node_id, "pid": os.getpid(),
                "ttl_s": self.leases.ttl_s, "state": state,
                "updated_at": self.clock(),
                "jobs_done": self.jobs_done,
            }) + "\n")
        tel = _obs._active
        if tel is not None:
            tel.registry.get("repro_cluster_heartbeat_age_seconds") \
                .labels(self.node_id).set(0.0)

    def _count_job(self, status: str) -> None:
        tel = _obs._active
        if tel is not None:
            tel.registry.get("repro_cluster_jobs_total").labels(status).inc()

    def _emit(self, name: str, **fields) -> None:
        tel = _obs._active
        if tel is not None:
            tel.emit(name, node=self.node_id, **fields)

    # -- stopping conditions -------------------------------------------------
    def _should_stop(self, holder: Optional[List[Lease]] = None
                     ) -> Optional[str]:
        """The node's ``should_stop``: ``"stopped"`` or ``"deadline"``
        from :func:`~repro.fleet.worker.campaign_stop` on the cluster
        directory and the manifest deadline, else ``"fenced"`` or
        ``None``.

        With ``holder`` (a one-element list with the job's lease) it is
        also the heartbeat the fleet worker calls before every attempt
        and at every chunk boundary: once a third of the TTL has passed
        since the claim or the last renewal, renew the lease and beat.
        Renewals are then at most a third of the TTL plus one chunk's
        wall apart, so a chunk must stay under two thirds of the TTL.  A
        refused renewal means the job migrated — ``"fenced"``; the new
        holder resumes from the last checkpoint saved.
        """
        reason = campaign_stop(self.cluster_dir, self.deadline_at)
        if reason is not None or holder is None:
            return reason
        ttl_s = self.leases.ttl_s
        if self.clock() < holder[0].expires_at - 2 * ttl_s / 3:
            return None
        renewed = self.leases.renew(holder[0])
        if renewed is None:
            return "fenced"
        holder[0] = renewed
        self._beat("working")
        return None

    # -- coordination --------------------------------------------------------
    def _completed_ids(self) -> set:
        """Job ids already committed to the shared store.

        Reads only the records appended since the previous scan (the
        store is append-only for the life of the campaign).  Callers
        that are about to *start work* take the store lock around this
        scan plus the claim decision — that is the other half of the
        fencing linearisation: a commit either happened before the scan
        (we see it and skip) or will be fenced.
        """
        records, self._store_offset = self.store.tail(self._store_offset)
        self._committed.update(
            record["job_id"] for record in records
            if record.get("status") in ("ok", "quarantined"))
        return self._committed

    # -- job execution -------------------------------------------------------
    def _execute_with_retries(self, job_dict: Dict,
                              should_stop: StopCheck) -> Dict:
        """Run one job to a terminal record (ok / quarantined).

        Raises :class:`~repro.errors.CampaignStopped` with the reason
        when ``should_stop`` returns one.  Retries stay *inside* the
        lease: each attempt is a one-job ``run_shard``, which consults
        ``should_stop`` (renewing the lease when a renewal is due)
        first, so a retry loop can never outlive the node's claim.
        :func:`should_retry` decides, as in the pool runner.
        """
        job = CampaignJob.from_dict(job_dict)
        wall_s = 0.0
        for attempt in itertools.count():
            (outcome,) = run_shard([job_dict], attempt,
                                   self.manifest.get("fault_plan"),
                                   self.checkpoint, should_stop)
            wall_s += outcome["wall_s"]
            if outcome["status"] == "ok":
                self.breaker.record_success()
                resumed = outcome["checkpoint"].get("resumed_from_cycle")
                if resumed:
                    self._emit("node.job.migrated", job_id=job.job_id,
                               resumed_from_cycle=resumed)
                return job_record(job, "ok", "executed", attempt + 1,
                                  wall_s, payload=outcome["payload"])
            if outcome["status"] != "error":
                raise CampaignStopped(outcome["status"])
            self.breaker.record_failure()
            if not should_retry(outcome, self.manifest["max_retries"]):
                return job_record(job, "quarantined", "executed",
                                  attempt + 1, wall_s,
                                  error=outcome["error"])

    def _commit(self, record: Dict, lease: Lease) -> None:
        """Fenced append: verify-the-lease-then-write, atomically."""
        self.store.append(record, fence=self.leases.fence_for(lease))

    def _run_job(self, lease: Lease) -> str:
        """Run one claimed job to a committed record; returns an outcome.

        Outcomes: ``"done"`` (record committed, by this node or by a
        holder that died before marking the job done; marker written,
        lease released), ``"fenced"`` (lost the lease — a peer migrated
        the job away), ``"stopped"``/``"deadline"`` (stopped at a safe
        boundary, lease released so a peer — or a later restart — picks
        the job up without waiting out the TTL).
        """
        holder = [lease]
        job_dict = self.jobs[lease.resource]
        job = CampaignJob.from_dict(job_dict)
        self._emit("node.job.claimed", job_id=job.job_id, token=lease.token)
        tel = _obs._active
        t0 = tel.tracer.now_us() if tel is not None else 0.0
        # the resume scan shares the store lock with commits: a record
        # is either visible here or its writer will be fenced
        with file_lock(self.store.lock_path):
            committed = job.job_id in self._completed_ids()
        outcome = "done"
        if not committed:
            payload = None if self.cache is None else self.cache.lookup(job)
            try:
                if payload is not None:
                    record = job_record(job, "ok", "cache", 0, 0.0,
                                        payload=payload)
                else:
                    record = self._execute_with_retries(
                        job_dict, partial(self._should_stop, holder))
                self._commit(record, holder[0])
            except CampaignStopped as stop:
                outcome = stop.reason
            except StaleLeaseError:
                outcome = "fenced"
            else:
                self.jobs_done += 1
                self._count_job(record["status"])
                if record["status"] == "ok" and \
                        record["source"] == "executed" and \
                        self.cache is not None:
                    self.cache.store(job, record["payload"])
        if outcome == "fenced":
            self.fenced += 1
            self._emit("node.fenced", job_id=job.job_id,
                       token=holder[0].token)
        else:
            if outcome == "done":
                mark_done(self.cluster_dir, lease.resource, self.node_id,
                          holder[0].token)
                self._emit("node.job.done", job_id=job.job_id)
            # released so a peer need not wait out the TTL; a stopped
            # job's checkpoint stays for the resume
            self.leases.release(holder[0])
        if tel is not None:
            tel.tracer.complete(
                "cluster.job", t0, tel.tracer.now_us() - t0, "cluster",
                args={"job_id": job.job_id, "node": self.node_id,
                      "outcome": outcome})
        return outcome

    # -- the node loop -------------------------------------------------------
    def run(self) -> Dict:
        """Work until the campaign finalizes (or stop/deadline); returns
        a summary dict (``state``, counters, aggregate path when final).
        """
        self._beat("starting")
        self._emit("node.start", cluster_dir=self.cluster_dir,
                   ttl_s=self.leases.ttl_s)
        # a finished job's device is a web of reference cycles: collect
        # after each job, but only in a process that froze its start-up
        # heap (``repro node``), never over the unfrozen heap of an
        # in-process caller.  Read once: the count walks the frozen heap.
        collect = gc.get_freeze_count() > 0
        state = NODE_DONE
        aggregate_path = None
        while True:
            stop = self._should_stop()
            if stop is not None:
                state = stop
                break
            if is_final(self.cluster_dir):
                break
            self._beat("scanning")
            if not self.breaker.allow():
                # this node's own failure rate tripped its breaker:
                # stop claiming (healthy peers keep the campaign moving)
                # until the cooldown lets a probe job through
                time.sleep(min(max(self.breaker.retry_after_s(), 0.05),
                               1.0))
                continue
            claimed = None
            pending = 0
            for digest in self.jobs:
                if is_done(self.cluster_dir, digest):
                    continue
                pending += 1
                lease = self.leases.claim(digest)
                if lease is not None:
                    claimed = lease
                    break
            if claimed is not None:
                outcome = self._run_job(claimed)
                if collect:
                    gc.collect()
                if outcome in (NODE_STOPPED, NODE_DEADLINE):
                    state = outcome
                    break
                continue
            if pending == 0:
                # everything done: race for the finalize lease
                final_lease = self.leases.claim(FINALIZE_RESOURCE)
                if final_lease is not None:
                    try:
                        if not is_final(self.cluster_dir):
                            aggregate_path = finalize(self.cluster_dir,
                                                      self.node_id)
                            self._emit("cluster.final",
                                       aggregate=aggregate_path)
                    finally:
                        self.leases.release(final_lease)
                    break
            # jobs all leased out (or finalize contended): idle-wait
            time.sleep(self.poll_s)
        if aggregate_path is None and is_final(self.cluster_dir):
            aggregate_path = self.store.aggregate_path
        self._beat(state)
        self._emit("node.stop", state=state, jobs_done=self.jobs_done,
                   fenced=self.fenced)
        tel = _obs._active
        if tel is not None:
            status = cluster_status(self.cluster_dir)
            tel.registry.get("repro_cluster_nodes_alive") \
                .set(status["nodes_alive"])
        return {
            "state": state, "node": self.node_id,
            "jobs_done": self.jobs_done,
            "fenced": self.fenced,
            "aggregate_path": aggregate_path,
        }
