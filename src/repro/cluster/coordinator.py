"""Campaign coordination artifacts: manifest, job plan, done, final.

Everything multi-node execution agrees on lives as CRC-guarded files in
the shared cluster directory — there is no network protocol, only
atomic writes and the lease layer:

``manifest.json``
    What to run: the fully-resolved job dicts plus execution knobs
    (checkpoint cadence, retries, optional fault plan and absolute
    deadline) and the release that submitted it.  Written once by
    :func:`submit`; nodes never mutate it.
``done/<digest>.done``
    Completion marker of one job, written by the holder of the job's
    lease once the job's record is in the store.
``final.json``
    Campaign completion: written by whichever node wins the
    ``finalize`` lease once every job is done, alongside the
    deterministic ``aggregate.json`` (byte-identical to a single-node
    run's — the cluster's acceptance criterion).

The job — the unit of lease-based claiming and of migration — is named
by its content digest: :func:`job_plan` maps each digest to its job,
a pure function of the manifest, so every node that loads the manifest
holds the same plan.  Finalizing is the one one-shot task, guarded by
an ordinary lease, so any node can do it and any node's death during
it is survivable.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional

from .. import __version__
from ..durable import atomic_write, seal_record, unseal_record
from ..errors import ClusterError, ConfigurationError
from ..fleet.spec import CampaignJob
from ..fleet.store import ResultStore, stop_requested

MANIFEST_NAME = "manifest.json"
FINAL_NAME = "final.json"
DONE_DIR = "done"
NODE_DIR = "nodes"
CHECKPOINT_DIR = "checkpoints"
CACHE_DIR = "cache"

#: cluster event journal (resilience journal format, different file)
CLUSTER_JOURNAL_NAME = "cluster.jsonl"


def _read_sealed(path: str, what: str) -> Dict:
    try:
        with open(path, "rb") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise ClusterError(f"missing {what}: {path}")
    try:
        return unseal_record(text)
    except (ValueError, KeyError) as exc:
        raise ClusterError(f"damaged {what} at {path}: {exc}")


def submit(cluster_dir: str, jobs: List[CampaignJob],
           checkpoint_every: int = 5_000,
           max_retries: int = 2,
           fault_plan: Optional[Dict] = None,
           deadline_s: Optional[float] = None,
           cache: bool = True) -> str:
    """Publish a campaign manifest into ``cluster_dir``; returns its path.

    Refuses a directory that already holds a manifest (a cluster dir is
    one campaign — resubmitting into live coordination state would be
    split-brain by construction).  ``fault='exit'`` drill jobs are
    rejected: in cluster mode the job *is* the node process, and a job
    that kills every node it migrates to can never complete.
    """
    os.makedirs(cluster_dir, exist_ok=True)
    path = os.path.join(cluster_dir, MANIFEST_NAME)
    if os.path.exists(path):
        raise ConfigurationError(
            f"cluster dir {cluster_dir!r} already holds a campaign "
            f"manifest; one cluster directory runs one campaign")
    if not jobs:
        raise ConfigurationError("cluster campaign needs at least one job")
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("duplicate jobs in campaign matrix")
    if any(job.fault == "exit" for job in jobs):
        raise ConfigurationError(
            "fault='exit' drills cannot run on a cluster: the job would "
            "kill every node that claims it")
    if checkpoint_every < 1:
        raise ConfigurationError("checkpoint_every must be >= 1 cycle")
    if max_retries < 0:
        raise ConfigurationError("max_retries must be >= 0")
    if fault_plan is not None:
        from ..faults import FaultPlan
        fault_plan = FaultPlan.from_dict(fault_plan).to_dict() \
            if not isinstance(fault_plan, FaultPlan) else fault_plan.to_dict()
    record = {
        "kind": "manifest",
        # job ids and digests hash the release: a node of another
        # release refuses the manifest
        "version": __version__,
        "jobs": [job.to_dict() for job in sorted(jobs,
                                                 key=lambda j: j.job_id)],
        "checkpoint_every": int(checkpoint_every),
        "max_retries": int(max_retries),
        "fault_plan": fault_plan,
        # absolute wall clock, like the orchestrator's deadline stop: it
        # must mean the same thing on every node sharing the directory
        "deadline_at": (time.time() + float(deadline_s)
                        if deadline_s is not None else None),
        # a fault plan disables the shared cache wholesale, same rule as
        # the single-node orchestrator: injected payloads must never
        # poison (or be served from) the content-addressed store
        "cache": bool(cache) and fault_plan is None,
    }
    atomic_write(path, seal_record(record) + "\n")
    return path


def load_manifest(cluster_dir: str) -> Dict:
    manifest = _read_sealed(os.path.join(cluster_dir, MANIFEST_NAME),
                            "cluster manifest")
    if manifest.get("kind") != "manifest" or "jobs" not in manifest:
        raise ClusterError(
            f"not a cluster manifest: {cluster_dir}/{MANIFEST_NAME}")
    return manifest


def job_plan(manifest: Dict) -> Dict[str, Dict]:
    """The campaign's jobs by digest, in job-id order.

    The digest names the job's lease and done marker, never the
    caller-chosen job name.  A pure function of the manifest, so every
    node computes the same plan and none has to publish it.
    """
    jobs = sorted((CampaignJob.from_dict(job) for job in manifest["jobs"]),
                  key=lambda job: job.job_id)
    return {job.digest: job.to_dict() for job in jobs}


def done_path(cluster_dir: str, name: str) -> str:
    return os.path.join(cluster_dir, DONE_DIR, name + ".done")


def is_done(cluster_dir: str, name: str) -> bool:
    return os.path.exists(done_path(cluster_dir, name))


def mark_done(cluster_dir: str, name: str, node: str, token: int) -> None:
    os.makedirs(os.path.join(cluster_dir, DONE_DIR), exist_ok=True)
    atomic_write(done_path(cluster_dir, name),
                 seal_record({"kind": "done", "job": name,
                              "node": node, "token": token}) + "\n")


def final_path(cluster_dir: str) -> str:
    return os.path.join(cluster_dir, FINAL_NAME)


def is_final(cluster_dir: str) -> bool:
    return os.path.exists(final_path(cluster_dir))


def dedupe_records(records: List[Dict]) -> List[Dict]:
    """First committed record per job wins, sorted by job id.

    Cross-node appends interleave in wall-clock order; fencing makes a
    *completed-then-migrated* double commit impossible, but an append
    landing in the benign race window (expired-but-unclaimed lease) can
    coexist with the migrated re-execution's record.  Payloads are
    deterministic, so duplicates are byte-identical and first-wins is
    merely a tiebreak on metadata (attempts, wall_s).
    """
    seen: Dict[str, Dict] = {}
    for record in records:
        job_id = record.get("job_id")
        if job_id and job_id not in seen:
            seen[job_id] = record
    return [seen[job_id] for job_id in sorted(seen)]


def finalize(cluster_dir: str, node: str) -> str:
    """Write the deterministic aggregate + the final marker.

    Call only with the ``finalize`` lease held.  The aggregate is the
    byte-identity artifact: ok records (deduped, sorted by job id) and
    quarantined ids, exactly what a single-node
    :class:`~repro.fleet.orchestrator.CampaignRunner` writes — which is
    what the chaos drill byte-compares.  The store itself is left as
    committed: completion order, with any benign duplicate commit.
    """
    store = ResultStore(cluster_dir)
    records = dedupe_records(store.load())
    ok = [r for r in records if r.get("status") == "ok"]
    quarantined = [r for r in records if r.get("status") == "quarantined"]
    aggregate = store.write_aggregate(ok, quarantined)
    atomic_write(final_path(cluster_dir),
                 seal_record({"kind": "final", "node": node,
                              "ok": len(ok),
                              "quarantined": len(quarantined)}) + "\n")
    return aggregate


def cluster_status(cluster_dir: str,
                   liveness_s: Optional[float] = None) -> Dict:
    """One structured snapshot of the shared directory (CLI + tests).

    ``liveness_s`` is the heartbeat horizon for counting a node alive;
    default three lease TTLs' worth of the freshest node record, or 30 s
    when no node ever registered.
    """
    from .lease import LEASE_DIR, LEASE_SUFFIX, Lease
    status: Dict = {"cluster_dir": cluster_dir}
    try:
        manifest = load_manifest(cluster_dir)
    except ClusterError:
        return dict(status, state="empty")
    plan = job_plan(manifest)
    now = time.time()
    status.update({
        "total_jobs": len(manifest["jobs"]),
        "deadline_at": manifest.get("deadline_at"),
        "final": is_final(cluster_dir),
        "stop_requested": stop_requested(cluster_dir),
    })
    job_states = []
    for digest, job in plan.items():
        entry = {"job_id": CampaignJob.from_dict(job).job_id,
                 "digest": digest, "done": is_done(cluster_dir, digest)}
        lease_file = os.path.join(cluster_dir, LEASE_DIR,
                                  digest + LEASE_SUFFIX)
        if os.path.exists(lease_file):
            try:
                record = _read_sealed(lease_file, "lease")
                lease = Lease.from_record(record)
                entry["lease"] = {
                    "node": lease.node, "token": lease.token,
                    "expires_in_s": round(lease.expires_at - now, 3),
                    "renewals": lease.renewals,
                }
            except (ClusterError, KeyError, TypeError):
                entry["lease"] = {"damaged": True}
        job_states.append(entry)
    status["job_states"] = job_states
    status["done_jobs"] = sum(1 for entry in job_states if entry["done"])
    # node heartbeat files
    nodes = []
    node_root = os.path.join(cluster_dir, NODE_DIR)
    if os.path.isdir(node_root):
        for name in sorted(os.listdir(node_root)):
            if not name.endswith(".json"):
                continue
            try:
                record = _read_sealed(os.path.join(node_root, name),
                                      "node record")
            except ClusterError:
                continue
            record["heartbeat_age_s"] = round(
                now - float(record.get("updated_at", 0.0)), 3)
            nodes.append(record)
    horizon = liveness_s if liveness_s is not None else max(
        (3 * float(n.get("ttl_s", 10.0)) for n in nodes), default=30.0)
    status["nodes"] = nodes
    status["nodes_alive"] = sum(
        1 for n in nodes if n["heartbeat_age_s"] <= horizon)
    # a read-only view: tail() never quarantines, unlike load()
    records = dedupe_records(ResultStore(cluster_dir).tail(0)[0])
    status["records"] = {
        "ok": sum(1 for r in records if r.get("status") == "ok"),
        "quarantined": sum(1 for r in records
                           if r.get("status") == "quarantined"),
    }
    return status
