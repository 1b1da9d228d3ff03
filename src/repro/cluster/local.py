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
fold checks that the campaign *finalized* (or was stopped, or ran out
of time), not that every worker exited cleanly; a campaign every node
left unfinished for any other reason is a :class:`ClusterError`.
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
from ..fleet.store import ResultStore, request_stop, stop_requested
from .coordinator import dedupe_records, is_final, load_manifest, submit
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


def fold_report(cluster_dir: str, nodes: int = 1,
                wall_s: float = 0.0) -> CampaignReport:
    """Reduce the shared store to a single-node-shaped campaign report;
    ``wall_s`` is the campaign's wall clock, measured by the caller.

    An unfinished campaign reads as ``deadline_exceeded`` once its
    deadline has passed and as ``preempted`` when a STOP file asked the
    nodes to stop; otherwise every node gave up on it (a refused
    manifest, a crash loop) and the fold raises :class:`ClusterError`.
    """
    manifest = load_manifest(cluster_dir)
    store = ResultStore(cluster_dir)
    records = dedupe_records(store.load())
    metrics = CampaignMetrics(total_jobs=len(manifest["jobs"]),
                              workers=max(1, nodes), wall_s=wall_s)
    for record in records:
        metrics.note_record(record)
    report = CampaignReport(records=records, metrics=metrics,
                            store_path=store.path)
    deadline_at = manifest.get("deadline_at")
    if is_final(cluster_dir):
        report.aggregate_path = store.aggregate_path
    elif deadline_at is not None and time.time() > deadline_at:
        report.deadline_exceeded = True
    elif stop_requested(cluster_dir):
        report.preempted = True
    else:
        raise ClusterError(
            f"cluster campaign in {cluster_dir!r} is not final, yet it was "
            f"neither stopped nor out of time: every node exited early "
            f"({len(records)} of {len(manifest['jobs'])} jobs committed)")
    return report


def run_clustered(jobs: Optional[Sequence[CampaignJob]],
                  cluster_dir: str,
                  nodes: int = 2,
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
    if nodes < 0:
        raise ConfigurationError("cluster needs nodes >= 1 (0 = in-process)")
    start = time.perf_counter()
    if jobs is not None:
        submit(cluster_dir, list(jobs), checkpoint_every=checkpoint_every,
               max_retries=max_retries, fault_plan=fault_plan,
               deadline_s=deadline_s, cache=cache)
    else:
        load_manifest(cluster_dir)     # fail fast on an empty dir
    if nodes == 0:
        ClusterNode(cluster_dir, node_id="node-local", ttl_s=ttl_s).run()
        return fold_report(cluster_dir, nodes=1,
                           wall_s=time.perf_counter() - start)
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
    return fold_report(cluster_dir, nodes=nodes,
                       wall_s=time.perf_counter() - start)
