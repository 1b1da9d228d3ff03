"""The local launcher: forked nodes that start clean and never linger.

``run_clustered(nodes=N)`` forks its N worker nodes from the launcher.
These tests pin what that promises:

* no forked node outlives ``run_clustered``: not on success, not when
  every node exits early (``ClusterError``), and not when
  ``wait_timeout_s`` runs out on a hung node, which is killed and reaped;
* a node keeps no descriptor of the launcher's: a ``flock`` the launcher
  held while it forked is free to another process once the launcher
  releases it, while the node still runs; and it closes only the
  descriptors listed open, never every number up to the limit;
* a node starts with the telemetry and fault-injector slots empty, the
  default SIGINT and SIGTERM dispositions, and stdout and stderr on
  ``/dev/null``;
* an idle node blocked on a peer's lease leaves as soon as the campaign
  is final (or asked to stop), not a ``poll_s`` later.
"""

import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cluster import (ClusterNode, local, request_stop, run_clustered,
                           stop_requested, submit)
from repro.cluster.lease import LeaseManager
from repro.durable import file_lock
from repro.errors import ClusterError
from repro.faults import FaultInjector, FaultPlan, injector
from repro.fleet.spec import CampaignJob
from repro.obs import runtime, telemetry

#: exits 0 when it takes the lock on argv[1] at once, else 1
TRY_LOCK = ("import fcntl, sys\n"
            "fcntl.flock(open(sys.argv[1], 'a'), "
            "fcntl.LOCK_EX | fcntl.LOCK_NB)")


def make_jobs(n):
    return [CampaignJob(name=f"c{i}", domain="engine", device="tc1797",
                        params={}, cycles=2_000, seed=7)
            for i in range(n)]


def wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


@pytest.fixture
def forked(monkeypatch):
    """The pids ``run_clustered`` forks."""
    pids = []
    fork_node = local._fork_node

    def recording(*args):
        child = fork_node(*args)
        pids.append(child[0])
        return child

    monkeypatch.setattr(local, "_fork_node", recording)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# --- no child left behind ----------------------------------------------------
def test_no_node_outlives_a_finished_campaign(tmp_path, forked):
    report = run_clustered(make_jobs(4), str(tmp_path), nodes=2)
    assert report.aggregate_path and len(report.ok_records) == 4
    assert len(forked) == 2
    assert_reaped(forked)


def test_no_node_outlives_nodes_that_all_exit_early(tmp_path, forked,
                                                    monkeypatch):
    monkeypatch.setattr(local, "_node_child", lambda *args: 1)
    with pytest.raises(ClusterError, match="not final"):
        run_clustered(make_jobs(2), str(tmp_path), nodes=2)
    assert len(forked) == 2
    assert_reaped(forked)


def test_a_hung_node_is_killed_and_reaped_at_the_timeout(tmp_path, forked,
                                                         monkeypatch):
    monkeypatch.setattr(local, "_node_child",
                        lambda *args: time.sleep(60) or 1)
    start = time.monotonic()
    with pytest.raises(ClusterError, match="did not finish"):
        run_clustered(make_jobs(2), str(tmp_path), nodes=2,
                      wait_timeout_s=0.5)
    assert time.monotonic() - start < 10.0
    assert len(forked) == 2
    assert_reaped(forked)
    assert stop_requested(str(tmp_path))


# --- a clean child -------------------------------------------------------------
def test_a_node_keeps_no_descriptor_of_the_launcher(tmp_path, monkeypatch):
    """A lock the launcher held at fork time would otherwise stay held
    by the node's copy of the descriptor after the launcher let go."""
    lock_path = str(tmp_path / "held.lock")
    ready, go = tmp_path / "ready", tmp_path / "go"
    run = ClusterNode.run

    def gated_run(self):
        ready.touch()
        wait_for(go.exists)
        return run(self)

    fork_node = local._fork_node
    probes = []

    def fork_under_lock(*args):
        with file_lock(lock_path):
            child = fork_node(*args)
        # released here; the node is past its start and still runs
        wait_for(ready.exists)
        probes.append(subprocess.run(
            [sys.executable, "-c", TRY_LOCK, lock_path],
            stderr=subprocess.DEVNULL, timeout=30).returncode)
        go.touch()
        return child

    monkeypatch.setattr(ClusterNode, "run", gated_run)
    monkeypatch.setattr(local, "_fork_node", fork_under_lock)
    report = run_clustered(make_jobs(1), str(tmp_path / "c"), nodes=1)
    assert report.aggregate_path
    assert probes == [0]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs the /proc/self/fd listing")
def test_a_node_closes_only_the_open_descriptors(tmp_path, monkeypatch):
    """``closerange`` up to the descriptor limit costs one syscall per
    number, and containers set that limit as high as 2**30."""
    def walk(*args):
        raise AssertionError("walked every descriptor number")

    monkeypatch.setattr(os, "closerange", walk)
    report = run_clustered(make_jobs(1), str(tmp_path), nodes=1)
    assert report.aggregate_path


def test_a_node_starts_clean(tmp_path, monkeypatch):
    """Forked under telemetry, a fault injector and a SIGTERM handler,
    a node sees none of them, holds no high-numbered descriptor of the
    launcher's, and writes nowhere but ``/dev/null``."""
    seen = tmp_path / "seen.json"
    run = ClusterNode.run
    devnull = os.stat(os.devnull)
    high = min(resource.getrlimit(resource.RLIMIT_NOFILE)[0], 4096) - 1

    def is_open(fd):
        try:
            os.fstat(fd)
        except OSError:
            return False
        return True

    def probing_run(self):
        seen.write_text(json.dumps({
            "high_fd": is_open(high),
            "telemetry": runtime._active is None,
            "injector": injector._active is None,
            "sigint": signal.getsignal(signal.SIGINT)
            is signal.default_int_handler,
            "sigterm": signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
            "stdout": os.path.samestat(os.fstat(1), devnull),
            "stderr": os.path.samestat(os.fstat(2), devnull),
        }))
        return run(self)

    monkeypatch.setattr(ClusterNode, "run", probing_run)
    previous = signal.signal(signal.SIGTERM, lambda *args: None)
    low = os.open(os.devnull, os.O_RDONLY)
    os.dup2(low, high)
    os.close(low)
    try:
        with telemetry(), FaultInjector(FaultPlan(rules=())):
            report = run_clustered(make_jobs(1), str(tmp_path / "c"),
                                   nodes=1)
    finally:
        os.close(high)
        signal.signal(signal.SIGTERM, previous)
    assert report.aggregate_path
    assert json.loads(seen.read_text()) == {
        "high_fd": False,
        "telemetry": True, "injector": True, "sigint": True,
        "sigterm": True, "stdout": True, "stderr": True}


# --- the idle wait -------------------------------------------------------------
@pytest.mark.parametrize("ending", ["final", "stop"])
def test_an_idle_node_leaves_once_the_campaign_ends(tmp_path, ending):
    """Blocked on a job a peer holds, a node with ``poll_s=5`` leaves
    within 0.5 s of the peer finalizing (or of a STOP), not at its next
    claim scan."""
    cdir = str(tmp_path)
    jobs = make_jobs(1)
    submit(cdir, jobs)
    peer = LeaseManager(cdir, "peer", ttl_s=60)
    held = peer.claim(jobs[0].digest)
    assert held is not None
    idle = ClusterNode(cdir, node_id="idle", poll_s=5)
    refused = threading.Event()
    claim = idle.leases.claim

    def noting_claim(resource):
        lease = claim(resource)
        if lease is None:
            refused.set()
        return lease

    idle.leases.claim = noting_claim
    summary = {}
    thread = threading.Thread(target=lambda: summary.update(idle.run()))
    thread.start()
    try:
        assert refused.wait(30)           # scanned, found the job leased
        if ending == "final":
            peer.release(held)
            assert ClusterNode(cdir, node_id="peer").run()["state"] == "done"
        else:
            request_stop(cdir)
        ended = time.monotonic()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert time.monotonic() - ended < 0.5
    finally:
        request_stop(cdir)
        thread.join()
    assert summary["state"] == ("done" if ending == "final" else "stopped")
