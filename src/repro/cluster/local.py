"""Run a whole cluster campaign on one machine: N forked node processes.

:func:`run_clustered` is the convenience entry point (and the backend
``repro.serve`` uses): submit the manifest, fork N worker node
*processes* over the shared directory, wait them out, and fold the
shared store back into an ordinary
:class:`~repro.fleet.orchestrator.CampaignReport` — so callers (CLI,
service, tests) see exactly the single-node result shape, including the
byte-identical ``aggregate.json``.

Real processes, not threads: the whole point of the cluster layer is
surviving *process death*.  Node crashes are therefore non-fatal here —
the fold checks that the campaign *finalized* (or was stopped, or ran
out of time), not that every worker exited cleanly; a campaign every
node left unfinished for any other reason is a :class:`ClusterError`.

Forked, not exec'd: a local node starts from the launcher's warm image,
so it pays no exec and no imports.  The child is made to start as an
exec'd ``repro node`` would (:func:`_node_child`), so nothing of the
launcher survives into it but memory.  ``repro node``
(:func:`node_command`) starts nodes on other machines, and the chaos
drill SIGKILLs such processes.
"""

from __future__ import annotations

import faulthandler
import os
import selectors
import signal
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ClusterError, ConfigurationError
from ..fleet.metrics import CampaignMetrics
from ..fleet.orchestrator import CampaignReport
from ..fleet.spec import CampaignJob
from ..fleet.store import ResultStore, request_stop, stop_requested
from ..fleet.worker import start_forked_worker
from .coordinator import dedupe_records, is_final, load_manifest, submit
from .node import ClusterNode, exit_status


def node_command(cluster_dir: str, node_id: str,
                 ttl_s: float) -> List[str]:
    """The ``repro node`` argv that starts one worker node elsewhere."""
    return [sys.executable, "-m", "repro.cli", "node",
            "--cluster-dir", cluster_dir, "--node-id", node_id,
            "--ttl", str(ttl_s)]


def _close_inherited(keep: int) -> None:
    """Close every descriptor above stderr but ``keep``.

    Only the descriptors ``/proc/self/fd`` lists as open: closing every
    number up to the descriptor limit costs one syscall per number, and
    containers set that limit as high as 2**30.  Without that listing,
    every number up to the limit it is.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:
        os.closerange(3, keep)
        os.closerange(keep + 1, os.sysconf("SC_OPEN_MAX"))
        return
    for fd in fds:
        if fd > 2 and fd != keep:
            try:
                os.close(fd)
            except OSError:     # the listing's own, closed already
                pass


def _node_child(cluster_dir: str, node_id: str, ttl_s: float,
                exit_fd: int) -> int:
    """A forked node's whole life; returns its exit status
    (:func:`~repro.cluster.node.exit_status`).

    It starts as an exec'd ``repro node`` would.  It keeps no inherited
    descriptor but ``exit_fd``, the write end of its exit pipe: a
    ``flock`` another launcher thread holds (the service journal's, a
    store's) would otherwise outlive its release, and a service's
    listening socket the service.  Its stdout and stderr go to
    ``/dev/null``, its signal dispositions are the defaults, and no
    crash report goes to a descriptor a node file may have reused.
    """
    start_forked_worker()
    _close_inherited(exit_fd)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    os.close(devnull)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    faulthandler.disable()
    return exit_status(ClusterNode(cluster_dir, node_id=node_id,
                                   ttl_s=ttl_s).run())


def _fork_node(cluster_dir: str, node_id: str,
               ttl_s: float) -> Tuple[int, int]:
    """Fork one worker node; returns its pid and the read end of its
    exit pipe, which reads end-of-file once the node has exited."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1      # also when the node raises
        try:
            status = _node_child(cluster_dir, node_id, ttl_s, write_fd)
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _await_exits(pipes: Sequence[int], deadline: float) -> bool:
    """Wait until every exit pipe reads end-of-file; False once
    ``deadline`` (``time.monotonic()``) passes first."""
    with selectors.DefaultSelector() as selector:
        for fd in pipes:
            selector.register(fd, selectors.EVENT_READ)
        while selector.get_map():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            for key, _ in selector.select(remaining):
                selector.unregister(key.fd)
    return True


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
    """Execute a campaign over ``nodes`` forked worker processes; fold
    the report.

    ``jobs=None`` reuses a manifest already submitted into
    ``cluster_dir`` (the service pre-submits, then fans out).
    ``nodes=0`` runs a single :class:`ClusterNode` in this process
    instead of forking — no crash isolation, but deterministic and
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
    children: List[Tuple[int, int]] = []    # (pid, exit pipe read end)
    exited = False
    try:
        for index in range(nodes):
            children.append(_fork_node(cluster_dir, f"node-{index}", ttl_s))
        exited = _await_exits([fd for _, fd in children],
                              time.monotonic() + wait_timeout_s)
        if not exited:
            request_stop(cluster_dir)
            raise ClusterError(
                f"cluster campaign in {cluster_dir!r} did not finish "
                f"within {wait_timeout_s:.0f} s")
    finally:
        # no node outlives this call: kill whatever still runs, reap all
        for pid, fd in children:
            os.close(fd)
            if not exited:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return fold_report(cluster_dir, nodes=nodes,
                       wall_s=time.perf_counter() - start)
