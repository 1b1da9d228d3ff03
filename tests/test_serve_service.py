"""CampaignService: scheduling, streaming, quotas, preemption e2e.

The acceptance property of the whole subsystem: campaigns submitted to
the service — including ones evicted mid-flight by higher-priority work
and later resumed — produce aggregates byte-identical to the same specs
run offline through ``repro.fleet.run_campaign``.
"""

import asyncio
import json

import pytest

from repro.errors import QuotaExceeded
from repro.fleet import CampaignSpec, run_campaign
from repro.serve import CampaignService, QuotaManager, TenantPolicy

SMALL = {"count": 2, "cycles": 8_000, "seed": 9}
#: long enough (~0.4s/job) that an eviction can land mid-campaign
LONG = {"count": 2, "cycles": 40_000, "seed": 9}


def open_quota():
    """Quotas wide open — these tests exercise scheduling, not admission."""
    return QuotaManager(default=TenantPolicy(burst=100, refill_per_s=100,
                                             max_queued=100))


async def wait_for(predicate, timeout=90.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


def event_names(campaign):
    events, _ = campaign.buffer.since(0)
    return [name for _, name, _ in events]


def run(coro):
    return asyncio.run(coro)


def test_submit_runs_to_completion_and_streams(tmp_path):
    async def main():
        service = CampaignService(root=str(tmp_path / "serve"),
                                  quota=open_quota(), slots=1,
                                  checkpoint_every=4_000)
        await service.start()
        try:
            campaign = service.submit("t1", dict(SMALL))
            assert campaign.state == "queued"
            assert campaign.jobs_total == 2
            await wait_for(lambda: campaign.state == "completed")
        finally:
            await service.stop()
        names = event_names(campaign)
        assert names[0] == "campaign.queued"
        assert "campaign.started" in names
        assert names.count("job.result") == 2
        assert names[-1] == "campaign.completed"
        assert campaign.buffer.closed
        assert campaign.results_streamed == 2
        assert campaign.aggregate_path is not None
        # metrics reflect the lifecycle
        reg = service.registry
        assert reg.get("repro_serve_campaigns_total") \
            .value("t1", "admitted") == 1
        assert reg.get("repro_serve_campaigns_total") \
            .value("t1", "completed") == 1
        assert reg.get("repro_serve_results_streamed_total").value() == 2
        # results page serves the full store incrementally
        page = service.results_page(campaign, 0)
        assert len(page["records"]) == 2 and page["complete"]
        tail = service.results_page(campaign, page["next_offset"])
        assert tail["records"] == []
    run(main())


def test_service_aggregate_matches_offline_run(tmp_path):
    async def main():
        service = CampaignService(root=str(tmp_path / "serve"),
                                  quota=open_quota(),
                                  checkpoint_every=4_000)
        await service.start()
        try:
            campaign = service.submit("t1", dict(SMALL))
            await wait_for(lambda: campaign.state == "completed")
        finally:
            await service.stop()
        return campaign
    campaign = run(main())
    offline = run_campaign(CampaignSpec(**SMALL), workers=0,
                           campaign_dir=str(tmp_path / "offline"))
    with open(campaign.aggregate_path, "rb") as a, \
            open(offline.aggregate_path, "rb") as b:
        assert a.read() == b.read()


def test_quota_rejection_counts_and_raises(tmp_path):
    async def main():
        quota = QuotaManager(default=TenantPolicy(
            burst=1, refill_per_s=0.0, max_queued=100))
        service = CampaignService(root=str(tmp_path / "serve"),
                                  quota=quota)
        await service.start()
        try:
            service.submit("t1", dict(SMALL))
            with pytest.raises(QuotaExceeded) as exc:
                service.submit("t1", dict(SMALL))
            assert exc.value.retry_after_s == float("inf")
            assert service.registry.get("repro_serve_campaigns_total") \
                .value("t1", "rejected") == 1
        finally:
            await service.stop()
    run(main())


def test_bad_spec_rejected_before_admission(tmp_path):
    async def main():
        service = CampaignService(root=str(tmp_path / "serve"),
                                  quota=open_quota())
        await service.start()
        try:
            with pytest.raises(ValueError, match="unknown campaign spec"):
                service.submit("t1", {"cycle": 1000})
            with pytest.raises(ValueError, match="priority"):
                service.submit("t1", {"priority": "urgent"})
        finally:
            await service.stop()
        assert service.campaigns == {}
    run(main())


@pytest.mark.parametrize("cluster_nodes", [0, 1])
def test_preemption_at_checkpoint_boundary_byte_identical(tmp_path,
                                                          cluster_nodes):
    """The tentpole e2e: two tenants, overlapping campaigns, one slot.

    Tenant A's long low-priority campaign is running when tenant B
    submits a higher-priority one.  A must yield at a checkpoint
    boundary, B runs to completion, A resumes and also completes — and
    BOTH aggregates are byte-identical to offline runs of the same
    specs (eviction never changes the science).  With ``cluster_nodes``
    the campaigns run on a node subprocess and the eviction reaches it
    as the cluster's STOP file.
    """
    async def main():
        service = CampaignService(root=str(tmp_path / "serve"),
                                  quota=open_quota(), slots=1,
                                  checkpoint_every=4_000,
                                  cluster_nodes=cluster_nodes)
        await service.start()
        try:
            low = service.submit("tenant-a",
                                 dict(LONG, priority=0))
            await wait_for(lambda: low.state == "running")
            await asyncio.sleep(0.1)       # let A get past a checkpoint
            high = service.submit("tenant-b",
                                  dict(SMALL, priority=5))
            # A is evicted at a checkpoint boundary...
            await wait_for(lambda: low.evictions >= 1)
            # ...B completes while A waits...
            await wait_for(lambda: high.state == "completed")
            # ...then A resumes and completes too
            await wait_for(lambda: low.state == "completed")
        finally:
            await service.stop()
        return low, high
    low, high = run(main())

    assert low.evictions >= 1 and low.attempts >= 2
    low_names = event_names(low)
    assert "campaign.evicting" in low_names
    assert "campaign.evicted" in low_names
    # the resumed start is marked as such
    events, _ = low.buffer.since(0)
    restarts = [json.loads(d) for _, n, d in events
                if n == "campaign.started"]
    assert restarts[0]["resumed"] is False
    assert restarts[-1]["resumed"] is True
    # a job result is streamed exactly once even though the resume
    # replays the store from byte 0
    assert low_names.count("job.result") == 2
    assert high.evictions == 0

    offline_low = run_campaign(CampaignSpec(**LONG), workers=0,
                               campaign_dir=str(tmp_path / "off-low"))
    offline_high = run_campaign(CampaignSpec(**SMALL), workers=0,
                                campaign_dir=str(tmp_path / "off-high"))
    for campaign, offline in ((low, offline_low), (high, offline_high)):
        with open(campaign.aggregate_path, "rb") as a, \
                open(offline.aggregate_path, "rb") as b:
            assert a.read() == b.read()


def test_weighted_tenant_gets_more_slots_over_time(tmp_path):
    """With equal priorities, dispatch order follows fair-queue weights."""
    async def main():
        quota = QuotaManager(
            default=TenantPolicy(burst=100, refill_per_s=100,
                                 max_queued=100),
            overrides={"heavy": TenantPolicy(weight=2.0, burst=100,
                                             refill_per_s=100,
                                             max_queued=100)})
        service = CampaignService(root=str(tmp_path / "serve"),
                                  quota=quota, slots=1,
                                  checkpoint_every=4_000)
        # don't start the scheduler: we only inspect queue order
        submitted = []
        for i in range(4):
            submitted.append(service.submit("heavy", dict(SMALL)))
        for i in range(2):
            submitted.append(service.submit("light", dict(SMALL)))
        order = [service.campaigns[e.campaign_id].tenant
                 for e in service.queue.entries()]
        assert order == ["heavy", "heavy", "light", "heavy",
                         "heavy", "light"]
        await service.stop()
    run(main())
