"""Fleet worker: executes campaign jobs inside a worker process.

:func:`run_shard` is the function shipped to the ``ProcessPoolExecutor``
— a module-level callable taking only plain dictionaries, so it pickles
under any start method.  Each job rebuilds its scenario and emulation
device from the declarative spec (:func:`build_device`), runs one profiling
session, and returns the result as the payload :func:`job_payload` builds
around :func:`repro.core.profiling.export.result_to_dict`.  Because every job
builds a fresh device from a fixed seed, a job's payload is bit-identical
no matter which process (or how many processes) ran it — the determinism
the orchestrator's ``--workers N`` equivalence guarantee rests on.

Faults raised by a job are caught *per job* and returned as structured
error outcomes; one poisoned job never takes down its shard-mates.  (A
worker process dying outright — the ``exit`` drill — is the orchestrator's
problem; it shows up there as a broken pool.)

Stopping early is one contract: a ``should_stop()`` callable, consulted
before each job or lane group and at every checkpoint or sweep boundary,
returns ``None`` to go on or a reason to stop.  The reason becomes the
outcome status as it is, and the shard ends there.
"""

from __future__ import annotations

import json  # noqa: F401  (bench/phases.py wraps worker.json)
import os
import time
import traceback
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional

from ..checkpoint import (PREV_SUFFIX, CheckpointError,
                          load_latest_checkpoint, save_checkpoint)
from ..core.profiling.export import result_to_dict
# bench/phases.py wraps worker.result_to_json in a span
from ..core.profiling.export import result_to_json  # noqa: F401
from ..core.profiling.session import ProfilingSession
from ..core.profiling import spec as pspec
from ..errors import CampaignStopped, ConfigurationError, FaultInjected
from ..faults import (FaultInjector, FaultPlan, SimulationWatchdog,
                      active_injector, fault_point)
from ..obs import bridge as _obs_bridge
from ..obs import runtime as _obs
from ..soc.config import CONFIGS
from ..workloads import SCENARIOS
from .spec import CampaignJob

#: ``should_stop() -> reason``: ``None`` to go on
StopCheck = Callable[[], Optional[str]]

#: the reasons a campaign runner's ``should_stop`` returns; an outcome
#: with one of them as its status ends its shard
STOP_REASONS = ("preempted", "deadline")


def deadline_stop(deadline: float) -> Optional[str]:
    """``should_stop`` for an absolute ``time.time()`` deadline.

    Module-level, so ``functools.partial(deadline_stop, deadline)``
    pickles to pool workers; ``time.time()`` readings compare across
    processes.
    """
    return "deadline" if time.time() > deadline else None


def shard_outcome(job: Dict, status: str, attempt: int, wall_s: float = 0.0,
                  **fields) -> Dict:
    """One job's outcome dict; ``pid`` is read here, in the process that
    ran the job."""
    return {"job": job, "status": status, "wall_s": wall_s,
            "attempt": attempt, "pid": os.getpid(), **fields}


class JobFault(FaultInjected):
    """Raised by a job's fault-drill mode (see ``CampaignJob.fault``)."""


def _apply_fault(fault: Optional[str], attempt: int) -> None:
    if not fault:
        return
    if fault == "crash":
        raise JobFault("fault drill: unconditional crash")
    if fault.startswith("flaky:"):
        threshold = int(fault.split(":", 1)[1])
        if attempt < threshold:
            raise JobFault(
                f"fault drill: flaky failure on attempt {attempt}")
        return
    if fault == "exit":
        os._exit(17)           # hard process death, not an exception
    if fault.startswith("hang:"):
        time.sleep(float(fault.split(":", 1)[1]))
        return
    raise ConfigurationError(f"unknown fault mode {fault!r}")


def checkpoint_path(checkpoint_dir: str, job: Dict) -> str:
    """Where a job's periodic checkpoint lives (content-addressed name)."""
    return os.path.join(checkpoint_dir,
                        CampaignJob.from_dict(job).job_id + ".ckpt")


def _discard_checkpoints(path: str) -> None:
    """Remove a finished job's checkpoint (and its rotated fallback)."""
    for candidate in (path, path + PREV_SUFFIX):
        try:
            os.unlink(candidate)
        except FileNotFoundError:
            pass


def _try_restore(device, job: Dict, path: str) -> int:
    """Resume ``device`` from the job's latest usable checkpoint.

    Returns the cycle the device resumed at, or 0 when no checkpoint
    exists, none passes its CRC, the digest belongs to a different job
    spec, or the body does not fit this device — every rejection falls
    back cleanly (ultimately to cycle 0) instead of raising.
    """
    loaded = load_latest_checkpoint(path)
    if loaded is None:
        return 0
    body, meta, used = loaded
    tel = _obs._active
    digest = CampaignJob.from_dict(job).digest
    if meta.get("digest") != digest:
        if tel is not None:
            tel.checkpoint_restored(
                "rejected", used,
                error="digest mismatch: checkpoint was written by a "
                      "different job spec or package version")
        return 0
    try:
        device.soc.sim.restore_state(body["sim"])
    except CheckpointError as exc:
        # restore_state validates before mutating, so the device is
        # still pristine — run from cycle 0
        if tel is not None:
            tel.checkpoint_restored("rejected", used, error=str(exc))
        return 0
    injector = active_injector()
    if injector is not None and body.get("injector") is not None:
        injector.restore_state(body["injector"])
    if tel is not None:
        tel.checkpoint_restored("success", used, cycle=device.cycle)
    return device.cycle


def _run_checkpointed(job: Dict, device, checkpoint: Dict,
                      stats: Dict, attempt: int = 0,
                      should_stop: Optional[StopCheck] = None) -> None:
    """Run the job's cycle budget in checkpoint-sized chunks.

    After every full chunk an atomic checkpoint (simulator state plus
    the fault injector's decision state) is written, then the
    ``worker.crash`` site is evaluated at ``phase="checkpoint"`` so chaos
    plans can kill the worker at the exact point a real crash would be
    recovered from.  A retry finds the file and resumes mid-run — the
    retry budget is measured in lost cycles, not lost jobs.

    ``should_stop`` is consulted right after each checkpoint lands on
    disk, the one point where stopping loses nothing: a returned reason
    raises :class:`~repro.errors.CampaignStopped` and leaves the
    checkpoint in place (completion is what discards it), so a later
    resume continues from this exact cycle byte-identically.  The
    checkpoint cadence bounds how far past a deadline a job overshoots.
    """
    every = int(checkpoint["every"])
    if every < 1:
        raise ConfigurationError("checkpoint interval must be >= 1 cycle")
    path = checkpoint_path(checkpoint["dir"], job)
    stats["resumed_from_cycle"] = _try_restore(device, job, path)
    stats.setdefault("saves", 0)
    target = int(job["cycles"])
    digest = CampaignJob.from_dict(job).digest
    while device.cycle < target:
        device.run(min(every, target - device.cycle))
        if device.cycle >= target:
            break
        injector = active_injector()
        save_checkpoint(path, {
            "sim": device.soc.sim.snapshot_state(),
            "injector": injector.snapshot_state()
            if injector is not None else None,
        }, meta={"kind": "worker", "job_id": CampaignJob.from_dict(job).job_id,
                 "digest": digest, "cycle": device.cycle})
        stats["saves"] += 1
        action = fault_point("worker.crash", job=job["name"],
                             attempt=attempt, phase="checkpoint",
                             cycle=device.cycle)
        if action is not None:
            raise FaultInjected(
                f"injected worker crash after checkpoint at cycle "
                f"{device.cycle} in job {job['name']!r}")
        reason = should_stop and should_stop()
        if reason:
            raise CampaignStopped(reason)
    _discard_checkpoints(path)


def build_device(job: Dict):
    """The job's emulation device, built fresh from its spec."""
    try:
        scenario = SCENARIOS[job["domain"]]()
    except KeyError:
        raise ConfigurationError(
            f"unknown workload domain {job['domain']!r}")
    try:
        config = CONFIGS[job["device"]]()
    except KeyError:
        raise ConfigurationError(
            f"unknown device config {job['device']!r}")
    return scenario.build(config, dict(job["params"]), seed=job["seed"])


def job_specs(job: Dict) -> List[pspec.ParameterSpec]:
    """The parameters a job measures: its profile's series."""
    return pspec.engine_parameter_set(ipc_resolution=job["ipc_resolution"],
                                      rate_per=job["rate_per"])


def job_payload(job: Dict, device, profile: Dict) -> Dict:
    """A job's result payload: the fields aggregation needs plus the
    profile dict (:func:`~repro.core.profiling.export.result_to_dict`)."""
    return {
        "name": job["name"],
        "domain": job["domain"],
        "device": job["device"],
        "cycles": job["cycles"],
        # cycles actually simulated (deterministic, unlike wall time, so
        # it may live in the payload); campaign metrics divide the sum by
        # in-worker busy time for fleet-wide throughput
        "sim_cycles": device.soc.sim.cycle,
        "profile": profile,
    }


def _execute(job: Dict, watchdog_spec: Optional[Dict] = None,
             checkpoint: Optional[Dict] = None,
             stats: Optional[Dict] = None, attempt: int = 0,
             should_stop: Optional[StopCheck] = None) -> Dict:
    """Build the device, run the session, build the payload."""
    tel = _obs._active
    # a live span only with in-process execution (workers=0) or inside a
    # worker that installed its own telemetry; pool workers inherit none
    span = nullcontext() if tel is None else tel.span(
        "job.execute", cat="fleet", job=job["name"], domain=job["domain"],
        device=job["device"])
    with span:
        device = build_device(job)
        session = ProfilingSession(device, job_specs(job))
        if checkpoint:
            # the roster must be final before a restore can be attempted,
            # and the watchdog must be guarded *around* the restore so a
            # resumed roster matches the one the checkpoint captured
            device.soc._ensure_order()
        guard = SimulationWatchdog(**watchdog_spec).guard(device) \
            if watchdog_spec else nullcontext()
        with guard:
            if checkpoint:
                _run_checkpointed(job, device, checkpoint,
                                  {} if stats is None else stats, attempt,
                                  should_stop)
            else:
                device.run(job["cycles"])
        result = session.result()
        if tel is not None:
            # snapshot device-level stats into the registry while the
            # device still exists; metrics only, so payload bytes are
            # unaffected
            _obs_bridge.record_device_stats(tel.registry, device)
        return job_payload(job, device, result_to_dict(result))


def execute_job(job: Dict, attempt: int = 0,
                fault_plan: Optional[Dict] = None,
                checkpoint: Optional[Dict] = None,
                stats: Optional[Dict] = None,
                should_stop: Optional[StopCheck] = None) -> Dict:
    """Run one campaign job spec (a ``CampaignJob.to_dict()`` dict).

    Returns the deterministic result payload (:func:`job_payload`): the
    profile as plain data plus the identity fields aggregation needs.  With a
    ``fault_plan`` (a :class:`~repro.faults.FaultPlan` or its dict form),
    the whole job runs under an installed injector scoped to the job name,
    so injection decisions are reproducible regardless of which worker or
    shard picked the job up.

    ``checkpoint`` (``{"dir": str, "every": int}``) turns on periodic
    mid-run checkpoints: the run is chunked every ``every`` cycles and a
    retry of a crashed attempt resumes from the last intact checkpoint
    instead of cycle 0.  ``stats`` (a caller-owned dict) receives the
    non-deterministic checkpoint accounting — resumed cycle, save count —
    which must stay *out* of the payload to preserve its byte-identity.

    ``should_stop`` is checked at every checkpoint boundary; a returned
    reason raises :class:`~repro.errors.CampaignStopped` with the job's
    checkpoint left on disk for a byte-identical resume.
    """
    _apply_fault(job.get("fault"), attempt)
    if fault_plan is None:
        return _execute(job, checkpoint=checkpoint, stats=stats,
                        attempt=attempt, should_stop=should_stop)
    plan = fault_plan if isinstance(fault_plan, FaultPlan) \
        else FaultPlan.from_dict(fault_plan)
    with FaultInjector(plan, scope=job["name"]):
        action = fault_point("worker.crash", job=job["name"],
                             attempt=attempt)
        if action is not None:
            raise FaultInjected(
                f"injected worker crash in job {job['name']!r} "
                f"(attempt {attempt})")
        action = fault_point("worker.hang", job=job["name"],
                             attempt=attempt)
        if action is not None:
            time.sleep(float(action.params.get("seconds", 0.05)))
        return _execute(job, plan.watchdog, checkpoint, stats, attempt,
                        should_stop)


def run_shard(jobs: List[Dict], attempt: int = 0,
              fault_plan: Optional[Dict] = None,
              checkpoint: Optional[Dict] = None,
              should_stop: Optional[StopCheck] = None) -> List[Dict]:
    """Execute a shard of job specs, isolating failures per job.

    Returns one outcome dict per job, in shard order::

        {"job": <spec>, "status": "ok"|"error"|<stop reason>,
         "payload"|"error": ...,
         "retryable": bool, "wall_s": float, "attempt": int, "pid": int,
         "checkpoint": {...}}                # only when checkpointing

    ``retryable`` comes from the exception taxonomy: deterministic model
    errors (:class:`~repro.errors.ConfigurationError`, a cycle-deadline
    :class:`~repro.errors.WatchdogExpired`, ...) can never succeed on a
    retry, while transient injected faults and unknown exceptions keep the
    default retry/backoff treatment.

    ``should_stop`` is consulted before each job and — via the
    checkpoint loop — at every checkpoint boundary.  A returned reason
    ends the shard with a single outcome for the interrupted job whose
    status is that reason (``"preempted"``, ``"deadline"``); outcomes for
    jobs that already completed are returned normally, so nothing
    finished is lost.
    """
    outcomes: List[Dict] = []
    for job in jobs:
        reason = should_stop and should_stop()
        if reason:
            outcomes.append(shard_outcome(job, reason, attempt))
            break
        start = time.perf_counter()
        stats: Dict = {}
        fields: Dict = {}
        try:
            fields["payload"] = execute_job(job, attempt, fault_plan,
                                            checkpoint, stats, should_stop)
            status = "ok"
        except CampaignStopped as stop:
            status = reason = stop.reason
        except Exception as exc:
            status = "error"
            fields.update(error=f"{type(exc).__name__}: {exc}",
                          trace=traceback.format_exc(),
                          retryable=bool(getattr(exc, "retryable", True)))
        if checkpoint:
            # accounting lives in the outcome, never the payload: a
            # resumed payload must stay byte-identical to an
            # uninterrupted one
            fields["checkpoint"] = stats
        outcomes.append(shard_outcome(job, status, attempt,
                                      time.perf_counter() - start, **fields))
        if reason:
            break
    return outcomes


def _note_batch_group(tel, group: List[Dict], wall_s: float) -> None:
    """Record a completed lane group: counters plus one ``job.execute``
    span per lane, all covering the group's wall-clock interval.

    Lanes run interleaved inside the sweep, so the honest span for any
    one lane *is* the whole group interval; the ``backend: "batch"`` arg
    is how trace queries tell these spans from scalar ones.
    """
    reg = tel.registry
    reg.get("repro_batch_groups_total").labels("ok").inc()
    reg.get("repro_batch_lanes_total").inc(len(group))
    now_us = tel.tracer.now_us()
    wall_us = wall_s * 1e6
    t0 = max(0.0, now_us - wall_us)
    for job in group:
        tel.tracer.complete(
            "job.execute", t0, now_us - t0, "fleet",
            args={"job": job["name"], "domain": job["domain"],
                  "device": job["device"], "backend": "batch",
                  "lanes": len(group)})


def _note_batch_fallback(tel, reason: str) -> None:
    reg = tel.registry
    reg.get("repro_batch_fallbacks_total").labels(reason).inc()
    reg.get("repro_batch_groups_total").labels("fallback").inc()


def run_batch_shard(jobs: List[Dict], attempt: int = 0,
                    fault_plan: Optional[Dict] = None,
                    checkpoint: Optional[Dict] = None,
                    should_stop: Optional[StopCheck] = None) -> List[Dict]:
    """:func:`run_shard` on the batch-lane backend.

    Jobs are grouped by :func:`repro.batch.group_key` (same SoC config,
    seed, cycle budget, and measurement grid) and each group executes as
    one :class:`~repro.batch.LaneSimulator` — N portfolio customers per
    invocation instead of N invocations.  Everything the lanes cannot
    model falls back to the scalar path with unchanged semantics:

    * a ``fault_plan`` or ``checkpoint`` request routes the whole shard
      to :func:`run_shard` (injection and mid-run checkpoints are scalar
      features by contract);
    * a group the lanes refuse (:class:`~repro.batch.BatchUnsupported`:
      fault-drill jobs, would-be EMEM overflow, counter saturation) or
      one that raises mid-sweep re-runs scalar per job, so a poisoned
      job is isolated exactly as on the scalar path.

    Outcome dicts are shaped exactly like :func:`run_shard`'s, and —
    the backend's whole contract — an ``"ok"`` payload is byte-identical
    to the one the scalar worker would have produced.  ``wall_s`` is the
    group wall clock split evenly across its lanes (wall time never
    enters payloads, so the split only feeds busy-time metrics).
    """
    if fault_plan is not None or checkpoint is not None:
        return run_shard(jobs, attempt, fault_plan, checkpoint, should_stop)
    from ..batch import (BatchUnsupported, group_key, require_numpy,
                         run_lane_group)
    require_numpy()
    groups: Dict[tuple, List[Dict]] = {}
    for job in jobs:
        groups.setdefault(group_key(job), []).append(job)

    outcomes: List[Dict] = []
    for group in groups.values():       # first-seen job order
        reason = should_stop and should_stop()
        if reason:
            outcomes.append(shard_outcome(group[0], reason, attempt))
            break
        start = time.perf_counter()
        try:
            payloads = run_lane_group(group, should_stop)
        except CampaignStopped as stop:
            outcomes.append(shard_outcome(group[0], stop.reason, attempt,
                                          time.perf_counter() - start))
            break
        except Exception as exc:
            # the lanes refused the group up front (nothing ran) or it
            # failed mid-sweep: either way it re-runs scalar per job, so
            # an offending job gets its structured error outcome and its
            # group-mates still complete
            tel = _obs._active
            if tel is not None:
                _note_batch_fallback(tel, "unsupported" if isinstance(
                    exc, BatchUnsupported) else "error")
            outcomes.extend(run_shard(group, attempt,
                                      should_stop=should_stop))
            if outcomes[-1]["status"] in STOP_REASONS:
                break
            continue
        group_wall = time.perf_counter() - start
        tel = _obs._active
        if tel is not None:
            _note_batch_group(tel, group, group_wall)
        wall = group_wall / len(group)
        outcomes.extend(shard_outcome(job, "ok", attempt, wall,
                                      payload=payload)
                        for job, payload in zip(group, payloads))
    return outcomes
