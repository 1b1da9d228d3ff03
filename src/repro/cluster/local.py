"""Run a whole cluster campaign on one machine: N node subprocesses.

:func:`run_clustered` is the convenience entry point (and the backend
``repro.serve`` uses): submit the manifest, spawn N ``repro node``
worker *processes* over the shared directory, wait them out, and fold
the shared store back into an ordinary
:class:`~repro.fleet.orchestrator.CampaignReport` — so callers (CLI,
service, tests) see exactly the single-node result shape, including the
byte-identical ``aggregate.json``.

Real subprocesses, not threads: the whole point of the cluster layer is
surviving *process death*, and the chaos drill SIGKILLs one of these
workers mid-campaign.  Node crashes are therefore non-fatal here — the
fold only checks that the campaign *finalized*, not that every worker
exited cleanly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

from ..errors import ClusterError, ConfigurationError
from ..fleet.metrics import CampaignMetrics
from ..fleet.orchestrator import CampaignReport
from ..fleet.spec import CampaignJob
from ..fleet.store import ResultStore
from .coordinator import (dedupe_records, is_final, load_manifest,
                          request_stop, submit)
from .node import ClusterNode


def _node_env() -> Dict[str, str]:
    """Subprocess environment with this package importable."""
    env = dict(os.environ)
    import repro
    src_root = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else src_root
    return env


def node_command(cluster_dir: str, node_id: str,
                 ttl_s: float) -> List[str]:
    """The ``repro node`` argv for one worker subprocess."""
    return [sys.executable, "-m", "repro.cli", "node",
            "--cluster-dir", cluster_dir, "--node-id", node_id,
            "--ttl", str(ttl_s)]


def spawn_node(cluster_dir: str, node_id: str,
               ttl_s: float = 10.0) -> subprocess.Popen:
    """Start one detached worker node over ``cluster_dir``."""
    return subprocess.Popen(
        node_command(cluster_dir, node_id, ttl_s), env=_node_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def fold_report(cluster_dir: str, nodes: int = 1) -> CampaignReport:
    """Reduce the shared store to a single-node-shaped campaign report."""
    manifest = load_manifest(cluster_dir)
    store = ResultStore(cluster_dir)
    records = dedupe_records(store.load())
    metrics = CampaignMetrics(total_jobs=len(manifest["jobs"]),
                              workers=max(1, nodes))
    for record in records:
        if record.get("status") == "quarantined":
            metrics.quarantined += 1
            continue
        source = record.get("source", "executed")
        if source == "cache":
            metrics.cache_hits += 1
        elif source == "resumed":
            metrics.resumed += 1
        else:
            metrics.executed += 1
        metrics.retries += max(0, int(record.get("attempts", 1)) - 1)
        metrics.busy_s += float(record.get("wall_s", 0.0))
        metrics.job_walls.append(float(record.get("wall_s", 0.0)))
        metrics.note_payload(record.get("payload") or {})
    report = CampaignReport(records=records, metrics=metrics,
                            store_path=store.path)
    if is_final(cluster_dir):
        report.aggregate_path = store.aggregate_path
    else:
        # not finalized: either stopped cooperatively or out of time
        deadline_at = manifest.get("deadline_at")
        if deadline_at is not None and time.time() > deadline_at:
            report.deadline_exceeded = True
        else:
            report.preempted = True
    return report


def run_clustered(jobs: Optional[Sequence[CampaignJob]],
                  cluster_dir: str,
                  nodes: int = 2,
                  batches: Optional[int] = None,
                  checkpoint_every: int = 5_000,
                  max_retries: int = 2,
                  fault_plan: Optional[Dict] = None,
                  deadline_s: Optional[float] = None,
                  cache: bool = True,
                  ttl_s: float = 5.0,
                  wait_timeout_s: float = 600.0) -> CampaignReport:
    """Execute a campaign over ``nodes`` worker processes; fold the report.

    ``jobs=None`` reuses a manifest already submitted into
    ``cluster_dir`` (the service pre-submits, then fans out).
    ``nodes=0`` runs a single :class:`ClusterNode` in this process
    instead of spawning — no crash isolation, but deterministic and
    debuggable, and still exercising the full lease/fence protocol
    (tests and ``--nodes 0`` use it).
    """
    if jobs is not None:
        submit(cluster_dir, list(jobs), batches=batches,
               checkpoint_every=checkpoint_every, max_retries=max_retries,
               fault_plan=fault_plan, deadline_s=deadline_s, cache=cache)
    else:
        load_manifest(cluster_dir)     # fail fast on an empty dir
    if nodes == 0:
        ClusterNode(cluster_dir, node_id="node-local", ttl_s=ttl_s).run()
        return fold_report(cluster_dir, nodes=1)
    if nodes < 1:
        raise ConfigurationError("cluster needs nodes >= 1 (0 = in-process)")
    procs = [spawn_node(cluster_dir, f"node-{index}", ttl_s=ttl_s)
             for index in range(nodes)]
    deadline = time.monotonic() + wait_timeout_s
    try:
        for proc in procs:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterError(
                    f"cluster campaign in {cluster_dir!r} did not finish "
                    f"within {wait_timeout_s:.0f} s")
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                raise ClusterError(
                    f"cluster campaign in {cluster_dir!r} did not finish "
                    f"within {wait_timeout_s:.0f} s")
    except ClusterError:
        request_stop(cluster_dir)
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            if proc.poll() is None:    # pragma: no cover - defensive
                proc.kill()
    return fold_report(cluster_dir, nodes=nodes)
