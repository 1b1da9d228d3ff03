"""Cluster chaos drill: SIGKILL a worker node mid-campaign.

The whole point of the cluster layer, asserted end to end with *real
processes*: two ``repro node`` workers share a directory; one is
SIGKILLed while it holds a job lease, once that job has saved a
checkpoint.  The survivor must observe the lease expire, take the job
over (a journaled ``takeover``), resume the victim's half-finished job
from its shared checkpoint (a successful restore in its metrics), and
finalize an ``aggregate.json`` byte-identical to an undisturbed
single-node run.  A node saves on the lease clock (once a third of the
TTL has passed), so the jobs are long enough to save mid-run.

This is also the test the ``cluster-chaos`` CI lane runs.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cluster import submit
from repro.cluster.coordinator import CLUSTER_JOURNAL_NAME
from repro.cluster.lease import LEASE_DIR, LEASE_SUFFIX
from repro.cluster.local import node_command
from repro.durable import unseal_record
from repro.fleet.api import run_campaign
from repro.fleet.spec import CampaignJob
from repro.fleet.store import clear_stop
from repro.resilience.journal import AdmissionJournal

CYCLES = 400_000         # a job outlasts TTL_S / 3, so it saves mid-job
EVERY = 1_000            # chunk size: where STOP is read and saves land
TTL_S = 1.0              # short lease so migration happens quickly
DRILL_TIMEOUT_S = 240.0


def make_jobs():
    return [CampaignJob(name=f"c{i}", domain="engine", device="tc1797",
                        params={}, cycles=CYCLES, seed=7)
            for i in range(4)]


def _spawn(cluster_dir, node_id, metrics_out=None):
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                       "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    command = node_command(cluster_dir, node_id, TTL_S)
    if metrics_out is not None:
        command += ["--metrics-out", metrics_out]
    return subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)


def _wait_for_lease_held_by(cluster_dir, node_id, deadline):
    """Block until ``node_id`` holds a job lease; returns its resource."""
    lease_dir = os.path.join(cluster_dir, LEASE_DIR)
    while time.time() < deadline:
        if os.path.isdir(lease_dir):
            for name in sorted(os.listdir(lease_dir)):
                if not name.endswith(LEASE_SUFFIX) or \
                        name.startswith("finalize"):
                    continue
                try:
                    with open(os.path.join(lease_dir, name)) as handle:
                        record = unseal_record(handle.read().strip())
                except (ValueError, OSError):
                    continue
                if record.get("node") == node_id:
                    return record["resource"]
        time.sleep(0.02)
    raise AssertionError(
        f"node {node_id} never claimed a job within the drill timeout")


def _wait_for_checkpoint(cluster_dir, resource, deadline):
    """Block until the job ``resource`` has a checkpoint on disk."""
    path = os.path.join(cluster_dir, "checkpoints", resource + ".ckpt")
    while time.time() < deadline:
        if os.path.exists(path):
            return
        time.sleep(0.005)
    raise AssertionError(
        f"job {resource} saved no checkpoint within the drill timeout")


def _restores(metrics_path):
    """Successful checkpoint restores in a node's ``--metrics-out``."""
    with open(metrics_path) as handle:
        for line in handle:
            if line.startswith("repro_checkpoint_restores_total"
                               '{result="success"}'):
                return float(line.split()[-1])
    return 0.0


def _reference_bytes(jobs, tmp_path):
    """An undisturbed single-node run's aggregate; payload bytes do not
    depend on ``checkpoint_every``, so it runs without checkpoints."""
    ref = run_campaign(jobs, workers=0,
                       campaign_dir=str(tmp_path / "single"))
    with open(ref.aggregate_path, "rb") as handle:
        return handle.read()


@pytest.mark.slow
def test_sigkill_mid_campaign_migrates_and_stays_byte_identical(tmp_path):
    jobs = make_jobs()
    cluster_dir = str(tmp_path / "cluster")
    submit(cluster_dir, jobs, checkpoint_every=EVERY, max_retries=1)
    deadline = time.time() + DRILL_TIMEOUT_S

    metrics_out = str(tmp_path / "survivor.prom")
    victim = _spawn(cluster_dir, "victim")
    survivor = _spawn(cluster_dir, "survivor", metrics_out)
    try:
        # kill the victim once it owns a job and has saved it mid-run:
        # mid-campaign, with the job unfinished behind its lease
        batch = _wait_for_lease_held_by(cluster_dir, "victim", deadline)
        _wait_for_checkpoint(cluster_dir, batch, deadline)
        os.kill(victim.pid, signal.SIGKILL)
        assert victim.wait(timeout=10) == -signal.SIGKILL

        # the survivor must finish the whole campaign alone
        remaining = max(1.0, deadline - time.time())
        assert survivor.wait(timeout=remaining) == 0
    finally:
        for proc in (victim, survivor):
            if proc.poll() is None:
                proc.kill()

    # 1. completion: the campaign finalized despite the node death
    aggregate_path = os.path.join(cluster_dir, "aggregate.json")
    assert os.path.exists(aggregate_path)
    assert os.path.exists(os.path.join(cluster_dir, "final.json"))

    # 2. migration: the survivor took over the victim's expired lease
    journal = AdmissionJournal(cluster_dir, name=CLUSTER_JOURNAL_NAME)
    takeovers = [r for r in journal.replay()
                 if r["op"] == "takeover"
                 and r.get("previous_node") == "victim"]
    assert takeovers, "survivor never migrated the victim's job"
    assert any(r["resource"] == batch for r in takeovers)
    # ... and resumed it from the victim's checkpoint, not from cycle 0
    assert _restores(metrics_out) >= 1

    # 3. byte-identity: aggregate == an undisturbed single-node run's
    with open(aggregate_path, "rb") as handle:
        cluster_bytes = handle.read()
    assert _reference_bytes(jobs, tmp_path) == cluster_bytes

    # 4. no double completion: one committed record per job id
    with open(aggregate_path) as handle:
        aggregate = json.load(handle)
    ids = [entry["job_id"] for entry in aggregate["jobs"]]
    assert len(ids) == len(set(ids)) == 4


@pytest.mark.slow
def test_stop_file_halts_nodes_at_safe_boundaries(tmp_path):
    """A STOP request must end every node promptly with checkpoints (and
    committed records) intact — the cooperative-preemption path."""
    from repro.cluster import request_stop
    from repro.cluster.local import fold_report
    jobs = make_jobs()
    cluster_dir = str(tmp_path / "cluster")
    submit(cluster_dir, jobs, checkpoint_every=EVERY, max_retries=1)
    deadline = time.time() + DRILL_TIMEOUT_S
    node = _spawn(cluster_dir, "n1")
    try:
        _wait_for_lease_held_by(cluster_dir, "n1", deadline)
        time.sleep(0.2)        # most likely before its first save is due
        request_stop(cluster_dir)
        assert node.wait(timeout=60) == 0      # stopped is a clean exit
    finally:
        if node.poll() is None:
            node.kill()
    report = fold_report(cluster_dir, nodes=1)
    assert report.preempted and report.aggregate_path is None
    # whatever was mid-flight left a resumable checkpoint behind
    checkpoints = os.listdir(os.path.join(cluster_dir, "checkpoints"))
    committed = len(report.records)
    assert committed < 4 or not checkpoints
    # the stop saved the job in flight first, whether or not a save
    # had fallen due on the lease clock
    assert committed < 4
    assert len([name for name in checkpoints
                if name.endswith(".ckpt")]) == 1

    # once STOP is gone, a node resumes that job and finishes the bytes
    # of an undisturbed run
    clear_stop(cluster_dir)
    metrics_out = str(tmp_path / "n2.prom")
    node = _spawn(cluster_dir, "n2", metrics_out)
    try:
        assert node.wait(timeout=max(1.0, deadline - time.time())) == 0
    finally:
        if node.poll() is None:
            node.kill()
    assert _restores(metrics_out) == 1
    with open(os.path.join(cluster_dir, "aggregate.json"), "rb") as handle:
        assert handle.read() == _reference_bytes(jobs, tmp_path)
