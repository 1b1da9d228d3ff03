"""One retry policy and one record tally for the pool and the cluster.

The pool runner (in process and pooled) and the cluster node decide each
retry with ``should_retry`` and count each record with
``CampaignMetrics.note_record``, so one campaign reads the same on every
executor: the same records, counts, simulated cycles and aggregate bytes.
"""

import multiprocessing
import time

import pytest

from repro.cluster import run_clustered, submit
from repro.errors import ConfigurationError
from repro.fleet import CampaignJob, run_campaign
from repro.fleet.orchestrator import CampaignRunner
from repro.fleet.worker import should_retry

CYCLES = 4_000


def job(name, fault=None):
    return CampaignJob(name=name, domain="engine", device="tc1797",
                       params={}, cycles=CYCLES, seed=9, fault=fault)


# -- the policy ---------------------------------------------------------------

@pytest.mark.parametrize("outcome, max_retries, expected", [
    ({"status": "error", "attempt": 0, "retryable": True}, 1, True),
    ({"status": "error", "attempt": 1, "retryable": True}, 1, False),
    ({"status": "error", "attempt": 0, "retryable": True}, 0, False),
    ({"status": "error", "attempt": 0, "retryable": False}, 2, False),
    # a timed-out shard or a dead worker carries no ``retryable``
    ({"status": "error", "attempt": 0}, 1, True),
    ({"status": "ok", "attempt": 0}, 1, False),
    ({"status": "preempted", "attempt": 0}, 1, False),
])
def test_should_retry(outcome, max_retries, expected):
    assert should_retry(outcome, max_retries) is expected


def test_negative_retry_budget_is_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="max_retries must be >= 0"):
        CampaignRunner([job("a")], workers=0, max_retries=-1)
    with pytest.raises(ConfigurationError, match="max_retries must be >= 0"):
        submit(str(tmp_path), [job("a")], max_retries=-1)


# -- the executors agree ------------------------------------------------------

def _read(report):
    metrics = report.metrics
    with open(report.aggregate_path, "rb") as handle:
        aggregate = handle.read()
    return {
        "records": [(r["job"]["name"], r["status"], r["attempts"])
                    for r in report.records],
        "executed": metrics.executed,
        "quarantined": metrics.quarantined,
        "retries": metrics.retries,
        "sim_cycles": metrics.sim_cycles,
        "aggregate": aggregate,
    }


@pytest.mark.parametrize("jobs, quarantined, retries", [
    # two healthy jobs, one that fails once, one that always fails
    ([job("a"), job("b"), job("flaky", "flaky:1"), job("crash", "crash")],
     {"crash": 2}, 2),
    # a deterministic error is quarantined after its first attempt
    ([job("a"), job("b"), job("odd", "melt")], {"odd": 1}, 0),
])
def test_pool_and_cluster_agree(tmp_path, jobs, quarantined, retries):
    reports = {
        "inline": run_campaign(jobs, workers=0, max_retries=1,
                               campaign_dir=str(tmp_path / "inline")),
        "pool": run_campaign(jobs, workers=2, max_retries=1,
                             campaign_dir=str(tmp_path / "pool")),
        "cluster": run_clustered(jobs, str(tmp_path / "cluster"), nodes=0,
                                 checkpoint_every=1_000, max_retries=1),
    }
    reads = {name: _read(report) for name, report in reports.items()}
    assert reads["pool"] == reads["inline"]
    assert reads["cluster"] == reads["inline"]
    for name, report in reports.items():
        assert report.metrics.wall_s > 0, name

    read = reads["inline"]
    ok = len(jobs) - len(quarantined)
    assert read["executed"] == ok
    assert read["quarantined"] == len(quarantined)
    assert read["retries"] == retries
    assert read["sim_cycles"] == ok * CYCLES
    assert {name: attempts for name, status, attempts in read["records"]
            if status == "quarantined"} == quarantined


# -- the pool's shard timeout -------------------------------------------------

def test_hung_shard_times_out_and_is_quarantined():
    """A shard past ``timeout_s`` fails its job and abandons the pool;
    the retry times out again on a fresh pool, and the job is quarantined
    while its shard-mates finish normally."""
    jobs = [job(f"h{i}") for i in range(3)] + [job("hang", "hang:2")]
    report = run_campaign(jobs, workers=2, timeout_s=0.5, max_retries=1)
    assert sorted(r["job"]["name"] for r in report.ok_records) == \
        ["h0", "h1", "h2"]
    (hung,) = report.quarantined
    assert hung["job"]["name"] == "hang"
    assert hung["attempts"] == 2
    assert "timeout: shard exceeded" in hung["error"]


def test_timeout_bounds_each_job_alone():
    """``timeout_s`` bounds each job alone: a 2.5 s hang under a 1 s
    timeout is quarantined and every other job is ok.  The names are
    chosen so that ``assign_shards(jobs, 4)`` would put the hang with
    h4, h5 and h9 in one shard, whose four jobs would have had 4 s."""
    jobs = [job(name) for name in ("h0", "h4", "h5", "h9")] + [
        job("hang", "hang:2.5")]
    report = run_campaign(jobs, workers=2, timeout_s=1.0, max_retries=0)
    assert sorted(r["job"]["name"] for r in report.ok_records) == \
        ["h0", "h4", "h5", "h9"]
    (hung,) = report.quarantined
    assert hung["job"]["name"] == "hang"
    assert hung["attempts"] == 1
    assert "timeout" in hung["error"]


def test_timeout_charges_only_the_job_that_ran_out_of_time():
    """Jobs queued behind a hung worker are not charged for its hang: on
    one worker, ``a`` hangs past ``timeout_s`` and is quarantined, while
    ``b`` and ``c`` run again on a fresh pool and are ok at attempt 1."""
    jobs = [job("a", "hang:3"), job("b"), job("c")]
    report = run_campaign(jobs, workers=1, timeout_s=1.0, max_retries=0)
    assert [(r["job"]["name"], r["status"], r["attempts"])
            for r in report.records] == [
        ("a", "quarantined", 1), ("b", "ok", 1), ("c", "ok", 1)]
    assert "timeout" in report.quarantined[0]["error"]


def test_a_timed_out_pool_leaves_no_worker_behind():
    """The stuck pool's workers are ended, not left for the interpreter
    to join at exit: a job that never returns cannot hold the process."""
    before = set(multiprocessing.active_children())
    report = run_campaign([job("a", "hang:15")], workers=1, timeout_s=1.0,
                          max_retries=0)
    assert [r["status"] for r in report.records] == ["quarantined"]
    deadline = time.monotonic() + 5.0
    while set(multiprocessing.active_children()) - before and \
            time.monotonic() < deadline:
        time.sleep(0.05)
    assert not set(multiprocessing.active_children()) - before
