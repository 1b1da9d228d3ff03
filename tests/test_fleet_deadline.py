"""Deadline propagation (spec → orchestrator → worker) + jitter backoff."""

import time
from functools import partial

import pytest

from repro.errors import ConfigurationError
from repro.fleet import CampaignSpec, run_campaign
from repro.fleet.orchestrator import CampaignRunner
from repro.fleet.worker import deadline_stop, run_shard

SPEC = {"count": 2, "cycles": 8_000, "seed": 9}


def jobs_of(spec_kwargs):
    return CampaignSpec(**spec_kwargs).build_jobs()


# -- spec validation ----------------------------------------------------------

@pytest.mark.parametrize("bad", [0, -1, float("inf"), float("nan"), "soon"])
def test_spec_rejects_bad_deadlines(bad):
    with pytest.raises(ConfigurationError):
        CampaignSpec(**SPEC, deadline_s=bad)


def test_spec_deadline_roundtrips_but_stays_out_of_payloads():
    spec = CampaignSpec(**SPEC, deadline_s=12.5)
    assert CampaignSpec.from_dict(spec.to_dict()).deadline_s == 12.5
    # absent unless set: pre-deadline spec documents (and any digests
    # computed over them) are byte-for-byte what they always were
    assert "deadline_s" not in CampaignSpec(**SPEC).to_dict()


def test_runner_rejects_nonpositive_deadline():
    with pytest.raises(ConfigurationError, match="deadline_s"):
        CampaignRunner(jobs_of(SPEC), workers=0, deadline_s=0)


# -- orchestrator-level expiry ------------------------------------------------

def test_already_expired_deadline_runs_nothing(tmp_path):
    report = run_campaign(CampaignSpec(**SPEC), workers=0,
                          campaign_dir=str(tmp_path),
                          deadline_s=1e-6)
    assert report.deadline_exceeded
    assert report.records == []
    assert report.quarantined == []           # lateness is not a defect
    assert report.aggregate_path is None      # no partial aggregate


def test_deadline_carried_by_the_spec_itself(tmp_path):
    # the service path: deadline_s rides the spec dict through
    # run_campaign with no explicit runner kwarg
    report = run_campaign(dict(SPEC, deadline_s=1e-6), workers=0,
                          campaign_dir=str(tmp_path))
    assert report.deadline_exceeded and report.records == []


@pytest.mark.parametrize("workers", [0, 2])
def test_mid_campaign_expiry_keeps_finished_prefix(tmp_path, workers):
    """Expiry at a job boundary: done jobs stay, the rest never run.

    With ``workers=2`` the deadline stop is pickled to pool workers."""
    # cycles sized so one job comfortably outlives the deadline even as
    # the kernel gets faster — expiry must hit a mid-campaign boundary
    spec = CampaignSpec(count=4, cycles=500_000, seed=9)
    t0 = time.time()
    report = run_campaign(spec, workers=workers, campaign_dir=str(tmp_path),
                          deadline_s=0.7)
    wall = time.time() - t0
    assert report.deadline_exceeded
    # it actually stopped near the deadline instead of running ~4 jobs
    assert wall < 10.0
    assert len(report.records) < 4
    assert report.aggregate_path is None
    # the store holds exactly the finished prefix — the resume substrate
    assert len(report.ok_records) == len(report.records)


def test_no_deadline_still_completes(tmp_path):
    report = run_campaign(CampaignSpec(**SPEC), workers=0,
                          campaign_dir=str(tmp_path))
    assert not report.deadline_exceeded
    assert report.aggregate_path is not None


# -- worker-level expiry ------------------------------------------------------

def test_run_shard_expires_at_job_boundary():
    jobs = [job.to_dict() for job in jobs_of(SPEC)]
    outcomes = run_shard(
        jobs, should_stop=partial(deadline_stop, time.time() - 1.0))
    assert len(outcomes) == 1                 # first boundary check fires
    assert outcomes[0]["status"] == "deadline"


def test_run_shard_expires_at_checkpoint_boundary(tmp_path):
    """A deadline passing mid-job stops at the next checkpoint, not at
    the end of the job — bounded overshoot is the checkpoint cadence."""
    jobs = [job.to_dict() for job in jobs_of(
        {"count": 1, "cycles": 200_000, "seed": 9})]
    checkpoint = {"dir": str(tmp_path), "every": 2_000}
    t0 = time.time()
    outcomes = run_shard(
        jobs, checkpoint=checkpoint,
        should_stop=partial(deadline_stop, time.time() + 0.2))
    wall = time.time() - t0
    assert outcomes[-1]["status"] == "deadline"
    assert wall < 10.0                        # did not run 200k cycles out


# -- full-jitter retry backoff ------------------------------------------------

def test_backoff_is_deterministic_per_job_matrix():
    a = CampaignRunner(jobs_of(SPEC), workers=0,
                       backoff_s=0.25, max_backoff_s=5.0)
    b = CampaignRunner(jobs_of(SPEC), workers=0,
                       backoff_s=0.25, max_backoff_s=5.0)
    assert [a._backoff_delay(n) for n in range(1, 6)] == \
        [b._backoff_delay(n) for n in range(1, 6)]


def test_backoff_full_jitter_bounds_and_cap():
    runner = CampaignRunner(jobs_of(SPEC), workers=0,
                            backoff_s=0.25, max_backoff_s=2.0)
    for attempt in range(1, 12):
        ceiling = min(2.0, 0.25 * 2 ** (attempt - 1))
        for _ in range(20):
            delay = runner._backoff_delay(attempt)
            assert 0.0 <= delay <= ceiling
    # the exponential ceiling really is hit below the cap...
    runner2 = CampaignRunner(jobs_of(SPEC), workers=0,
                             backoff_s=1.0, max_backoff_s=1000.0)
    assert max(runner2._backoff_delay(8) for _ in range(200)) > 64.0
    # ...and a huge attempt number cannot sleep past the cap
    assert runner2._backoff_delay(60) <= 1000.0


def test_backoff_rejects_negative_cap():
    with pytest.raises(ConfigurationError, match="max_backoff_s"):
        CampaignRunner(jobs_of(SPEC), workers=0, max_backoff_s=-1.0)
