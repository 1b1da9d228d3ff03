"""Service resilience: journal recovery, idempotency, breaker, deadlines.

The subprocess SIGKILL drill lives in ``test_serve_restart.py``; these
tests drive the same machinery in-process, where clocks and breakers
are injectable.
"""

import asyncio
import os

import pytest

from repro.errors import ServiceUnavailable
from repro.fleet import CampaignSpec, run_campaign
from repro.fleet.store import request_stop
from repro.resilience import OPEN, AdmissionJournal, CircuitBreaker, \
    fold_journal
from repro.serve import CampaignService, QuotaManager, TenantPolicy
from repro.serve.app import retry_after_header

SMALL = {"count": 2, "cycles": 8_000, "seed": 9}


def open_quota():
    return QuotaManager(default=TenantPolicy(burst=100, refill_per_s=100,
                                             max_queued=100))


async def wait_for(predicate, timeout=90.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


def run(coro):
    return asyncio.run(coro)


def service_at(root, **kwargs):
    kwargs.setdefault("quota", open_quota())
    kwargs.setdefault("checkpoint_every", 4_000)
    return CampaignService(root=str(root), **kwargs)


# -- write-ahead journal ------------------------------------------------------

def test_submit_journals_before_visible(tmp_path):
    async def main():
        service = service_at(tmp_path / "serve")
        campaign = service.submit("t1", dict(SMALL), idempotency_key="k1")
        state = fold_journal(service.journal.replay())
        entry = state.campaigns[campaign.campaign_id]
        assert entry.state == "queued" and entry.tenant == "t1"
        assert entry.idempotency_key == "k1"
        assert state.idempotency[("t1", "k1")] == campaign.campaign_id
        await service.stop()
    run(main())


def test_lifecycle_is_journaled(tmp_path):
    async def main():
        service = service_at(tmp_path / "serve")
        await service.start()
        try:
            campaign = service.submit("t1", dict(SMALL))
            await wait_for(lambda: campaign.state == "completed")
        finally:
            await service.stop()
        state = fold_journal(service.journal.replay())
        entry = state.campaigns[campaign.campaign_id]
        assert entry.state == "completed" and entry.attempts == 1
    run(main())


# -- crash recovery -----------------------------------------------------------

def test_restart_recovers_queue_seq_and_idempotency(tmp_path):
    root = tmp_path / "serve"

    async def first():
        service = service_at(root)
        # never started: both campaigns stay queued — a "crash" leaves
        # exactly this journal behind
        a = service.submit("t1", dict(SMALL), idempotency_key="dup")
        b = service.submit("t2", dict(SMALL, priority=2))
        return a.campaign_id, b.campaign_id
    id_a, id_b = run(first())

    async def second():
        service = service_at(root)
        await service.start()
        try:
            # ids, queue membership, and the idempotency map survived
            assert sorted(service.campaigns) == sorted([id_a, id_b])
            assert service.campaigns[id_a].recovered
            replay = service.submit("t1", dict(SMALL),
                                    idempotency_key="dup")
            assert replay.campaign_id == id_a       # no double admission
            fresh = service.submit("t3", dict(SMALL))
            assert fresh.campaign_id == "cmp-000003"  # watermark advanced
            await wait_for(lambda: all(
                service.campaigns[c].state == "completed"
                for c in (id_a, id_b, fresh.campaign_id)))
        finally:
            await service.stop()
        reg = service.registry
        assert reg.get("repro_resilience_recovered_total") \
            .value("requeued") == 2
        assert reg.get("repro_resilience_idempotent_replays_total") \
            .value() == 1
    run(second())


def test_recovered_interrupted_campaign_resumes_byte_identical(tmp_path):
    """A campaign RUNNING at crash time resumes, not restarts.

    The journal says "running, attempt 1"; recovery re-queues it with
    that attempt count, so the next dispatch takes the resume path —
    completed jobs replayed from the store prefix — and the final
    aggregate is byte-identical to an uninterrupted offline run.
    """
    root = tmp_path / "serve"
    spec = {"count": 3, "cycles": 8_000, "seed": 9}

    async def first():
        service = service_at(root)
        await service.start()
        try:
            campaign = service.submit("t1", dict(spec))
            # let it finish at least one job, then "crash": stop the
            # loop without journaling any further transitions
            await wait_for(lambda: len(
                campaign.store.tail(0)[0]) >= 1)
            request_stop(campaign.directory)  # stop at a boundary
            await wait_for(lambda: campaign.state != "running",
                           timeout=60.0)
            # overwrite the journal truth back to "running": exactly
            # what a SIGKILL mid-flight leaves behind
            service.journal.state(campaign.campaign_id, "running",
                                  attempts=1)
            return campaign.campaign_id
        finally:
            await service.stop()
    cid = run(first())

    async def second():
        service = service_at(root)
        await service.start()
        try:
            campaign = service.campaigns[cid]
            assert campaign.recovered
            await wait_for(lambda: campaign.state == "completed")
            events, _ = campaign.buffer.since(0)
            names = [n for _, n, _ in events]
            assert "campaign.recovered" in names
            return campaign.aggregate_path
        finally:
            await service.stop()
    aggregate_path = run(second())

    offline = run_campaign(CampaignSpec(**spec), workers=0,
                           campaign_dir=str(tmp_path / "offline"))
    with open(aggregate_path, "rb") as a, \
            open(offline.aggregate_path, "rb") as b:
        assert a.read() == b.read()


def test_restart_rebuilds_terminal_campaigns_and_compacts(tmp_path):
    root = tmp_path / "serve"

    async def first():
        service = service_at(root)
        await service.start()
        try:
            campaign = service.submit("t1", dict(SMALL))
            await wait_for(lambda: campaign.state == "completed")
            return campaign.campaign_id
        finally:
            await service.stop()
    cid = run(first())

    async def second():
        service = service_at(root)
        await service.start()
        try:
            campaign = service.campaigns[cid]
            assert campaign.state == "completed" and campaign.recovered
            # the surviving aggregate is re-attached and servable
            assert campaign.aggregate_path is not None
            assert os.path.exists(campaign.aggregate_path)
            assert service.aggregate_text(campaign)
        finally:
            await service.stop()
        # compaction bounded the journal: one admit + one state
        records = AdmissionJournal(str(root)).replay()
        assert [r["op"] for r in records] == ["admit", "state"]
    run(second())


# -- drain + breaker → 503 ----------------------------------------------------

def test_submit_during_drain_is_service_unavailable(tmp_path):
    async def main():
        service = service_at(tmp_path / "serve")
        await service.start()
        await service.stop()
        with pytest.raises(ServiceUnavailable) as exc:
            service.submit("t1", dict(SMALL))
        assert exc.value.retryable
        assert exc.value.retry_after_s == 5.0
    run(main())


def test_breaker_sheds_admissions_with_retry_after(tmp_path):
    async def main():
        clock = lambda: 1000.0                            # noqa: E731
        breaker = CircuitBreaker(min_samples=2, cooldown_s=30.0,
                                 clock=clock)
        service = service_at(tmp_path / "serve", breaker=breaker)
        breaker.record_failure()
        breaker.record_failure()                          # trips
        assert breaker.state == OPEN
        with pytest.raises(ServiceUnavailable) as exc:
            service.submit("t1", dict(SMALL))
        assert exc.value.retry_after_s == pytest.approx(30.0)
        assert service.campaigns == {}                    # nothing admitted
        reg = service.registry
        assert reg.get("repro_resilience_shed_total").value() == 1
        assert reg.get("repro_serve_campaigns_total") \
            .value("t1", "shed") == 1
        assert reg.get("repro_resilience_breaker_transitions_total") \
            .value("open") == 1
        await service.stop()
    run(main())


def test_failed_campaigns_feed_the_breaker(tmp_path):
    async def main():
        breaker = CircuitBreaker(min_samples=2, failure_threshold=0.5)
        service = service_at(tmp_path / "serve", breaker=breaker)
        await service.start()
        try:
            # a drill campaign quarantines its crashing job → failure
            # samples land in the breaker window
            campaign = service.submit(
                "t1", {"count": 1, "cycles": 8_000, "seed": 9,
                       "drill": True})
            await wait_for(lambda: campaign.state == "completed")
            assert campaign.quarantined
            assert breaker.failure_rate() > 0.0
        finally:
            await service.stop()
    run(main())


# -- deadlines ----------------------------------------------------------------

def test_queued_campaign_expires_at_deadline(tmp_path):
    async def main():
        # one slot occupied by a long campaign, far longer than the
        # deadline (service.stop() evicts it at teardown); the queued one
        # carries a deadline too short to ever reach a slot
        service = service_at(tmp_path / "serve", slots=1)
        await service.start()
        try:
            long = service.submit(
                "t1", {"count": 2, "cycles": 4_000_000, "seed": 9})
            await wait_for(lambda: long.state == "running")
            doomed = service.submit("t2", dict(SMALL, deadline_s=0.2))
            assert doomed.deadline_at is not None
            await wait_for(
                lambda: doomed.state == "deadline_exceeded", timeout=30.0)
            # terminal: out of the queue, buffer closed, journaled
            assert doomed.campaign_id not in [
                e.campaign_id for e in service.queue.entries()]
            assert doomed.buffer.closed
            state = fold_journal(service.journal.replay())
            assert state.campaigns[doomed.campaign_id].state == \
                "deadline_exceeded"
            reg = service.registry
            assert reg.get("repro_resilience_deadline_exceeded_total") \
                .value("queued") == 1
        finally:
            await service.stop()
    run(main())


def test_running_campaign_expires_at_deadline(tmp_path):
    async def main():
        service = service_at(tmp_path / "serve", slots=1,
                             checkpoint_every=2_000)
        await service.start()
        try:
            campaign = service.submit(
                "t1", {"count": 2, "cycles": 200_000, "seed": 9,
                       "deadline_s": 0.3})
            await wait_for(
                lambda: campaign.state == "deadline_exceeded",
                timeout=60.0)
            assert campaign.aggregate_path is None
            assert "deadline exceeded while running" in campaign.error
            reg = service.registry
            assert reg.get("repro_resilience_deadline_exceeded_total") \
                .value("running") == 1
        finally:
            await service.stop()
    run(main())


def test_status_exposes_deadline_and_breaker(tmp_path):
    async def main():
        service = service_at(tmp_path / "serve")
        campaign = service.submit("t1", dict(SMALL, deadline_s=3600))
        status = campaign.status()
        assert status["deadline_at"] == campaign.deadline_at
        assert status["recovered"] is False
        overview = service.overview()
        assert overview["breaker"]["state"] == "closed"
        await service.stop()
    run(main())


# -- Retry-After serialisation (satellite: math.ceil, not int(x+.999)) -------

@pytest.mark.parametrize("value, expected", [
    (0.0, "1"),                 # zero → floor of one second
    (-3.0, "1"),                # negative → floor of one second
    (0.4, "1"),                 # sub-second → rounds up to the floor
    (1.0, "1"),                 # exact integer stays exact
    (2.0005, "3"),              # the old int(x+0.999) trick said "2"
    (2.5, "3"),
    (59.999, "60"),
    (float("inf"), "3600"),     # zero-refill quota buckets report inf
    (float("nan"), "1"),
    (7200.0, "3600"),           # clamped to the ceiling
])
def test_retry_after_header_edges(value, expected):
    assert retry_after_header(value) == expected
