"""Cluster chaos drill: SIGKILL a worker node mid-campaign.

The whole point of the cluster layer, asserted end to end with *real
processes*: two ``repro node`` workers share a directory; one is
SIGKILLed while it holds a job lease.  The survivor must observe the
lease expire, take the job over (a journaled ``takeover``), resume
the victim's half-finished job from its shared checkpoint, and finalize
an ``aggregate.json`` byte-identical to an undisturbed single-node run.

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
from repro.resilience.journal import AdmissionJournal

CYCLES = 60_000          # long enough that a node dies mid-job
EVERY = 1_000            # checkpoint cadence = heartbeat cadence
TTL_S = 1.0              # short lease so migration happens quickly
DRILL_TIMEOUT_S = 240.0


def make_jobs():
    return [CampaignJob(name=f"c{i}", domain="engine", device="tc1797",
                        params={}, cycles=CYCLES, seed=7)
            for i in range(4)]


def _spawn(cluster_dir, node_id):
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                       "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        node_command(cluster_dir, node_id, TTL_S), env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


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


@pytest.mark.slow
def test_sigkill_mid_campaign_migrates_and_stays_byte_identical(tmp_path):
    jobs = make_jobs()
    cluster_dir = str(tmp_path / "cluster")
    submit(cluster_dir, jobs, checkpoint_every=EVERY, max_retries=1)
    deadline = time.time() + DRILL_TIMEOUT_S

    victim = _spawn(cluster_dir, "victim")
    survivor = _spawn(cluster_dir, "survivor")
    try:
        # kill the victim the moment it owns a job — mid-campaign, with
        # the job unfinished behind its lease
        batch = _wait_for_lease_held_by(cluster_dir, "victim", deadline)
        # give it a beat so at least one checkpoint chunk has run
        time.sleep(0.3)
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

    # 3. byte-identity: aggregate == an undisturbed single-node run's
    ref = run_campaign(jobs, workers=0,
                       campaign_dir=str(tmp_path / "single"),
                       checkpoint_every=EVERY)
    with open(aggregate_path, "rb") as handle:
        cluster_bytes = handle.read()
    with open(ref.aggregate_path, "rb") as handle:
        assert handle.read() == cluster_bytes

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
        time.sleep(0.2)                # let some checkpoints land
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
