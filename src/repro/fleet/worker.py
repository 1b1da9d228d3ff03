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

``backend="batch"`` is a per-job measurement mode: the job runs as one
:mod:`repro.batch` lane, which records the emission stream and rebuilds
the profile afterwards instead of running the live measurement plane.  A
job the lane refuses or fails re-runs on the live plane, so the payload
never depends on the backend.

Stopping early is one contract: a ``should_stop()`` callable, consulted
before each job and at every checkpoint chunk or lane stride boundary,
returns ``None`` to go on or a reason to stop.  The reason becomes the
outcome status as it is, and the shard ends there.  A campaign's
``should_stop`` is :func:`campaign_stop`: its directory's ``STOP`` file
and its deadline, read the same way by the runner, its pool workers and
cluster nodes.
"""

from __future__ import annotations

import gc
import json  # noqa: F401  (bench/phases.py wraps worker.json)
import os
import time
import traceback
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional

from ..checkpoint import (PREV_SUFFIX, CheckpointError, MessageLog, Window,
                          load_latest_checkpoint, message_log_path,
                          save_checkpoint)
from ..core.profiling.export import result_to_dict
# bench/phases.py wraps worker.result_to_json in a span
from ..core.profiling.export import result_to_json  # noqa: F401
from ..core.profiling.session import ProfilingSession
from ..core.profiling import spec as pspec
from ..durable import Canonical
from ..ed.emem import put_fifo
from ..errors import CampaignStopped, ConfigurationError, FaultInjected
from ..faults import (FaultInjector, FaultPlan, SimulationWatchdog,
                      active_injector, fault_point)
from ..faults import injector as _injector
from ..obs import bridge as _obs_bridge
from ..obs import runtime as _obs
from ..soc.config import CONFIGS
from ..workloads import SCENARIOS
from .spec import CampaignJob
from .store import stop_requested

#: ``should_stop() -> reason``: ``None`` to go on
StopCheck = Callable[[], Optional[str]]

#: the reasons :func:`campaign_stop` returns; an outcome with one of
#: them as its status ends its shard
STOP_REASONS = ("stopped", "deadline")


def start_forked_worker() -> None:
    """The first step of a process forked to run jobs: a pool worker or
    a local cluster node.

    Empties the process-wide telemetry and fault-injector slots it
    inherits: nobody reads what a worker would record into the parent's
    telemetry, and a job installs its own injector from its fault plan.
    Then freezes the inherited heap, so the per-job collections skip it.
    """
    _obs._active = None
    _injector._active = None
    gc.freeze()


def campaign_stop(directory: Optional[str],
                  deadline: Optional[float]) -> Optional[str]:
    """A campaign's ``should_stop``: ``"stopped"`` while ``directory``
    holds a ``STOP`` file, ``"deadline"`` once ``time.time()`` passes the
    absolute ``deadline``, else ``None``; either argument may be ``None``.

    Module-level, so ``functools.partial(campaign_stop, directory,
    deadline)`` pickles to pool workers; ``time.time()`` readings compare
    across processes.
    """
    if directory is not None and stop_requested(directory):
        return "stopped"
    if deadline is not None and time.time() > deadline:
        return "deadline"
    return None


def shard_outcome(job: Dict, status: str, attempt: int, wall_s: float = 0.0,
                  **fields) -> Dict:
    """One job's outcome dict; ``pid`` is read here, in the process that
    ran the job."""
    return {"job": job, "status": status, "wall_s": wall_s,
            "attempt": attempt, "pid": os.getpid(), **fields}


def should_retry(outcome: Dict, max_retries: int) -> bool:
    """The retry policy of the pool and the cluster node: a failed attempt
    runs again, at once, while its error is retryable (a timed-out job or
    a dead worker is) and its attempt is below ``max_retries``."""
    return (outcome["status"] == "error"
            and outcome.get("retryable", True)
            and outcome["attempt"] < max_retries)


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
                        CampaignJob.from_dict(job).digest + ".ckpt")


def _discard_checkpoints(path: str) -> None:
    """Remove a finished job's checkpoint, its rotated fallback, and the
    message log (plus lock sidecar) the two share."""
    log = MessageLog(message_log_path(path)).log
    for candidate in (path, path + PREV_SUFFIX, log.path, log.lock_path):
        try:
            os.unlink(candidate)
        except FileNotFoundError:
            pass


def _fifo_state(sim_state: Dict) -> Dict:
    """The EMEM's part of a simulator snapshot (the device attaches it as
    ``"emem"``)."""
    return sim_state["extras"]["emem"]


def _save(path: str, device, spec: CampaignJob, log: MessageLog,
          saved: int, logged: int) -> None:
    """Checkpoint ``device`` at its cycle.  The body keeps the EMEM FIFO's
    bounds; ``log`` gets the messages the FIFO took since the save at
    cycle ``saved``, when the FIFO had taken ``logged``.  Only those
    messages are rendered, so a save's cost does not grow with the FIFO."""
    injector = active_injector()
    with device.emem.fifo_left_out():
        sim = device.soc.sim.snapshot_state()
    lo, start, messages = device.emem.log_window(logged)
    save_checkpoint(path, {
        "sim": sim,
        "injector": injector.snapshot_state()
        if injector is not None else None,
    }, meta={"kind": "worker", "job_id": spec.job_id,
             "digest": spec.digest, "cycle": device.cycle},
        window=Window(log, saved, lo, start, messages))


def _try_restore(device, job: Dict, path: str) -> int:
    """Resume ``device`` from the job's latest usable checkpoint.

    Returns the cycle the device resumed at, or 0 when no checkpoint
    exists, none passes its CRC or finds its message log segments, the
    digest belongs to a different job spec, or the body does not fit this
    device — every rejection falls back cleanly (ultimately to cycle 0)
    instead of raising.
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
    put_fifo(_fifo_state(body["sim"]), body["window"])
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
    """Run the job's cycle budget in ``checkpoint["every"]``-cycle chunks.

    Each chunk ends at a boundary.  There an atomic checkpoint
    (simulator state plus the fault injector's decision state) is
    written when one is due, then ``should_stop`` is consulted.  A save
    is due at every boundary, unless the checkpoint dict carries
    ``"every_s"``: then only once that many seconds have passed since
    the attempt started or last saved (a cluster node passes a third of
    its lease TTL).  After each save the ``worker.crash`` site is
    evaluated at ``phase="checkpoint"`` so chaos plans can kill the
    worker at the exact point a real crash would be recovered from.  A
    retry finds the file and resumes mid-run — the retry budget is
    measured in lost cycles, not lost jobs.

    The body keeps the EMEM FIFO as its bounds; each save renders and
    appends only the messages the FIFO took since the previous save to
    the job's message log (:mod:`repro.checkpoint.msglog`), so a save's
    cost does not grow with the job's progress.  ``stats["bytes"]``
    counts bodies plus segments.

    A reason from ``should_stop`` raises
    :class:`~repro.errors.CampaignStopped`.  A stop or deadline saves
    first if this boundary did not, and leaves the checkpoint in place
    (completion is what discards it), so a later resume continues from
    this exact cycle byte-identically; ``"fenced"`` saves nothing, since
    the job now belongs to another holder.  The chunk size bounds how
    far past a deadline a job overshoots.
    """
    every = int(checkpoint["every"])
    if every < 1:
        raise ConfigurationError("checkpoint interval must be >= 1 cycle")
    every_s = checkpoint.get("every_s")
    path = checkpoint_path(checkpoint["dir"], job)
    saved = stats["resumed_from_cycle"] = _try_restore(device, job, path)
    stats.setdefault("saves", 0)
    stats.setdefault("bytes", 0)
    log = MessageLog(message_log_path(path))
    # the last save's cycle and the FIFO's message count as of it: the
    # next save logs only what came after
    logged = device.emem.appended if saved else 0
    body_bytes = 0
    target = int(job["cycles"])
    spec = CampaignJob.from_dict(job)
    saved_at = time.monotonic()

    def save() -> None:
        nonlocal saved, logged, body_bytes, saved_at
        _save(path, device, spec, log, saved, logged)
        saved, logged = device.cycle, device.emem.appended
        saved_at = time.monotonic()
        stats["saves"] += 1
        body_bytes += os.path.getsize(path)
        stats["bytes"] = body_bytes + log.appended_bytes
        action = fault_point("worker.crash", job=job["name"],
                             attempt=attempt, phase="checkpoint",
                             cycle=device.cycle)
        if action is not None:
            raise FaultInjected(
                f"injected worker crash after checkpoint at cycle "
                f"{device.cycle} in job {job['name']!r}")

    while device.cycle < target:
        device.run(min(every, target - device.cycle))
        if device.cycle >= target:
            break
        due = every_s is None or time.monotonic() - saved_at >= every_s
        if due:
            save()
        reason = should_stop and should_stop()
        if reason:
            if not due and reason in STOP_REASONS:
                save()
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


def _lane_payload(job: Dict, should_stop: Optional[StopCheck],
                  tel) -> Optional[Dict]:
    """The job's payload from a one-lane :func:`~repro.batch.run_lane_group`,
    or ``None`` when the lane refused the job or raised: the caller then
    runs it on the live plane.  A stop reason is not a failure and
    propagates as :class:`~repro.errors.CampaignStopped`."""
    from ..batch import BatchUnsupported, run_lane_group
    try:
        (payload,) = run_lane_group([job], should_stop)
    except CampaignStopped:
        raise
    except Exception as exc:
        if tel is not None:
            tel.registry.get("repro_batch_fallbacks_total").labels(
                "unsupported" if isinstance(exc, BatchUnsupported)
                else "error").inc()
        return None
    if tel is not None:
        tel.registry.get("repro_batch_lanes_total").inc()
    return payload


def _execute(job: Dict, watchdog_spec: Optional[Dict] = None,
             checkpoint: Optional[Dict] = None,
             stats: Optional[Dict] = None, attempt: int = 0,
             should_stop: Optional[StopCheck] = None,
             backend: str = "scalar") -> Dict:
    """Build the device, run the session, build the payload.

    A ``"batch"`` job without a checkpoint request runs as one lane
    first; only when the lane gives no payload does it run here on the
    live plane."""
    tel = _obs._active
    # a live span only with in-process execution (workers=0) or inside a
    # worker that installed its own telemetry; a forked worker empties
    # the slot it inherits (start_forked_worker)
    span = nullcontext() if tel is None else tel.span(
        "job.execute", cat="fleet", job=job["name"], domain=job["domain"],
        device=job["device"])
    with span as span_args:
        if backend == "batch" and not checkpoint:
            payload = _lane_payload(job, should_stop, tel)
            if payload is not None:
                if span_args is not None:
                    span_args["backend"] = "batch"
                return payload
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
                should_stop: Optional[StopCheck] = None,
                backend: str = "scalar") -> Dict:
    """Run one campaign job spec (a ``CampaignJob.to_dict()`` dict).

    Returns the deterministic result payload (:func:`job_payload`): the
    profile as plain data plus the identity fields aggregation needs.  With a
    ``fault_plan`` (a :class:`~repro.faults.FaultPlan` or its dict form),
    the whole job runs under an installed injector scoped to the job name,
    so injection decisions are reproducible regardless of which worker or
    shard picked the job up.

    ``checkpoint`` (``{"dir": str, "every": int}``, optionally with
    ``"every_s": float``) turns on periodic mid-run checkpoints: the run
    is chunked every ``every`` cycles, a save lands at each chunk's end
    (or, with ``every_s``, at the first one that many seconds after the
    last), and a retry of a crashed attempt resumes from the last intact
    checkpoint instead of cycle 0.  ``stats`` (a caller-owned dict)
    receives the non-deterministic checkpoint accounting — resumed
    cycle, save count, bytes written — which must stay *out* of the
    payload to preserve its byte-identity.

    ``should_stop`` is checked at every chunk boundary; a returned stop
    or deadline raises :class:`~repro.errors.CampaignStopped` with the
    job's checkpoint at that cycle left on disk for a byte-identical
    resume.

    ``backend="batch"`` runs the job as one batch lane (see the module
    docstring), checking ``should_stop`` at every lane stride.  A fault
    plan or a checkpoint request always runs on the live plane.
    """
    _apply_fault(job.get("fault"), attempt)
    if fault_plan is None:
        return _execute(job, checkpoint=checkpoint, stats=stats,
                        attempt=attempt, should_stop=should_stop,
                        backend=backend)
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
              should_stop: Optional[StopCheck] = None,
              backend: str = "scalar") -> List[Dict]:
    """Execute a shard of job specs, isolating failures per job.

    Returns one outcome dict per job, in shard order::

        {"job": <spec>, "status": "ok"|"error"|<stop reason>,
         "payload"|"error": ...,
         "retryable": bool, "wall_s": float, "attempt": int, "pid": int,
         "checkpoint": {...}}                # only when checkpointing

    ``retryable`` comes from the exception taxonomy: deterministic model
    errors (:class:`~repro.errors.ConfigurationError`, a cycle-deadline
    :class:`~repro.errors.WatchdogExpired`, ...) can never succeed on a
    retry, while transient injected faults and unknown exceptions are
    retried; :func:`should_retry` reads it.

    ``should_stop`` is consulted before each job and — via the
    checkpoint loop or the batch lane — at every checkpoint or stride
    boundary.  A returned reason ends the shard with a single outcome for
    the interrupted job whose status is that reason (``"stopped"``,
    ``"deadline"``); outcomes for jobs that already completed are
    returned normally, so nothing finished is lost.

    ``backend`` is passed to :func:`execute_job` for every job; an
    ``"ok"`` payload is byte-identical either way.

    An ``"ok"`` payload comes back as a :class:`~repro.durable.Canonical`:
    its canonical JSON text is rendered here, once, and every later
    write of the payload splices that text.
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
            fields["payload"] = Canonical(execute_job(
                job, attempt, fault_plan, checkpoint, stats, should_stop,
                backend))
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
