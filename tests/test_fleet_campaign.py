"""Fleet campaign end-to-end: determinism, caching, resume, quarantine.

The acceptance properties of the subsystem:

* a campaign run with N workers produces a byte-identical aggregate to a
  1-worker run (parallelism never changes the science);
* a warm-cache re-run executes zero jobs;
* a killed campaign resumes from its JSONL store prefix;
* a poison job is quarantined after its retry budget without taking any
  healthy job with it — even when it kills the worker process outright;
* each job is one ``run_shard`` task, and its record reaches the store
  as soon as the job returns; a pool worker frees a job's garbage before
  it takes the next job;
* a dead worker costs only the jobs whose results had not come back;
* each payload is rendered once, where it is made, and every aggregate
  equals an independent render of the report's records.
"""

import gc
import json
import os
import threading
import time
import weakref

import pytest

from repro.fleet import (CampaignJob, CampaignRunner, build_matrix,
                         campaign_matrix, matrix_table, rank_portfolio,
                         run_campaign, volume_weights, worker)
from repro.fleet.store import ResultStore, clear_stop, request_stop
from repro.core.optimization import hardware_options
from repro.soc.config import tc1797_config
from repro.workloads import CustomerGenerator

CYCLES = 12_000
SEED = 9


def population(count=3):
    return CustomerGenerator(seed=42).generate(count)


def make_jobs(count=3):
    return build_matrix(population(count), cycle_budgets=(CYCLES,),
                        seed=SEED)


def poison_job(fault, name="poison"):
    return CampaignJob(name=name, domain="engine", device="tc1797",
                       params={}, cycles=4_000, seed=SEED, fault=fault)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One sequential (1-worker) campaign with cache + store."""
    root = tmp_path_factory.mktemp("fleet-baseline")
    report = run_campaign(make_jobs(), workers=1,
                          cache_dir=str(root / "cache"),
                          campaign_dir=str(root / "run"))
    return root, report


def test_campaign_completes_population(baseline):
    _, report = baseline
    assert report.metrics.total_jobs == 3
    assert report.metrics.executed == 3
    assert not report.quarantined
    names = {r["payload"]["name"] for r in report.ok_records}
    assert names == {c.name for c in population()}
    # records are sorted by content-derived job id
    assert [r["job_id"] for r in report.records] == \
        sorted(r["job_id"] for r in report.records)


def test_parallel_equals_sequential_byte_identical(baseline, tmp_path):
    root, report1 = baseline
    report4 = run_campaign(make_jobs(), workers=4,
                           cache_dir=str(tmp_path / "cache"),
                           campaign_dir=str(tmp_path / "run"))
    with open(report1.aggregate_path, "rb") as a, \
            open(report4.aggregate_path, "rb") as b:
        assert a.read() == b.read()
    # the in-process path is bit-identical too
    report0 = run_campaign(make_jobs(), workers=0,
                           campaign_dir=str(tmp_path / "run0"))
    with open(report1.aggregate_path, "rb") as a, \
            open(report0.aggregate_path, "rb") as b:
        assert a.read() == b.read()


def test_warm_cache_rerun_executes_nothing(baseline):
    root, _ = baseline
    report = run_campaign(make_jobs(), workers=4,
                          cache_dir=str(root / "cache"),
                          campaign_dir=str(root / "rerun"))
    assert report.metrics.executed == 0
    assert report.metrics.cache_hits == 3
    assert report.metrics.cache_hit_rate == 1.0
    assert len(report.ok_records) == 3


def test_cache_misses_only_changed_jobs(baseline, tmp_path):
    root, _ = baseline
    jobs = make_jobs()
    changed = jobs[0]
    changed = CampaignJob(**{**changed.to_dict(), "cycles": CYCLES + 1000})
    report = run_campaign([changed] + jobs[1:], workers=0,
                          cache_dir=str(root / "cache"),
                          campaign_dir=str(tmp_path / "run"))
    assert report.metrics.cache_hits == 2
    assert report.metrics.executed == 1


def test_resume_after_kill(baseline, tmp_path):
    """A killed campaign's JSONL prefix is replayed, not re-executed."""
    root, report = baseline
    campaign_dir = tmp_path / "killed"
    campaign_dir.mkdir()
    store_path = campaign_dir / "campaign.jsonl"
    with open(report.store_path) as handle:
        lines = handle.readlines()
    # simulate a kill: only the first record made it to disk, the second
    # is a torn partial line
    store_path.write_text(lines[0] + lines[1][:40])
    resumed = run_campaign(make_jobs(), workers=0,
                           campaign_dir=str(campaign_dir), resume=True)
    assert resumed.metrics.resumed == 1
    assert resumed.metrics.executed == 2
    assert len(resumed.ok_records) == 3
    # and the final aggregate is still byte-identical to the clean run
    with open(report.aggregate_path, "rb") as a, \
            open(resumed.aggregate_path, "rb") as b:
        assert a.read() == b.read()


class _Killed(BaseException):
    """Stands in for a SIGKILL: nothing in the runner catches it."""


def test_resume_replaces_the_store_atomically(baseline, tmp_path,
                                              monkeypatch):
    """A resumed run killed before its work is done loses no record.

    The resume writes the resumed records in one atomic rewrite, not one
    append each after emptying the store, so a kill at any append
    leaves every prior record in place.
    """
    from repro.fleet.store import ResultStore
    _, report = baseline
    campaign_dir = tmp_path / "resumed"
    campaign_dir.mkdir()
    with open(report.store_path) as handle:
        (campaign_dir / "campaign.jsonl").write_text(handle.read())
    appends = []
    append = ResultStore.append

    def killed_at_second_append(self, record, fence=None):
        appends.append(record["job_id"])
        if len(appends) == 2:
            raise _Killed()
        return append(self, record, fence=fence)

    monkeypatch.setattr(ResultStore, "append", killed_at_second_append)
    try:
        run_campaign(make_jobs(), workers=0, campaign_dir=str(campaign_dir),
                     resume=True)
    except _Killed:
        pass
    kept = ResultStore(str(campaign_dir)).load()
    assert sorted(r["job_id"] for r in kept) \
        == sorted(r["job_id"] for r in report.records)


@pytest.mark.parametrize("seed", [1, 2, 3, 9])
@pytest.mark.parametrize("executor", ["pool", "cluster"])
def test_lagging_tailer_sees_every_record_once(tmp_path, monkeypatch,
                                               executor, seed):
    """A tailer that polls just before each append, and once after the
    run, receives every job's record exactly once: nothing rewrites the
    store under its offset."""
    from repro.cluster import run_clustered
    from repro.fleet import CampaignSpec, jobs_for
    from repro.fleet.store import ResultStore
    spec = CampaignSpec(count=4, cycles=3000, seed=seed)
    directory = str(tmp_path / "run")
    seen, offset = [], [0]

    def poll(store):
        records, offset[0] = store.tail(offset[0])
        seen.extend(record["job_id"] for record in records)

    append = ResultStore.append

    def lagging(self, record, fence=None):
        poll(self)
        return append(self, record, fence=fence)

    monkeypatch.setattr(ResultStore, "append", lagging)
    if executor == "pool":
        report = run_campaign(spec, workers=0, campaign_dir=directory)
    else:
        report = run_clustered(jobs_for(spec), directory, nodes=0,
                               checkpoint_every=1000)
    poll(ResultStore(directory))
    assert len(report.ok_records) == 4
    assert sorted(seen) == sorted(job.job_id for job in jobs_for(spec))


# -- records as jobs return, payloads rendered once --------------------------
def test_each_job_is_recorded_before_the_next_job_runs(tmp_path,
                                                      monkeypatch):
    """In process, each ``run_shard`` call carries one job, and a job's
    record is in the store before the next job starts, not only once the
    round is over."""
    from repro.fleet import orchestrator
    jobs = make_jobs()
    ids = sorted(job.job_id for job in jobs)
    directory = str(tmp_path / "run")
    seen = []
    run_shard = orchestrator.run_shard

    def reading_the_store(shard, *args):
        assert len(shard) == 1
        seen.append(sorted(r["job_id"] for r in ResultStore(directory).load()))
        return run_shard(shard, *args)

    monkeypatch.setattr(orchestrator, "run_shard", reading_the_store)
    run_campaign(jobs, workers=0, campaign_dir=directory)
    assert seen == [ids[:i] for i in range(len(ids))]


#: the campaign directory and the lowest job id, for the pool side
FIRST_JOB_ENV = "REPRO_TEST_FIRST_JOB"


def _run_shard_once_the_first_is_stored(jobs, *args):
    """Pool-side ``run_shard``: takes one job, and a job other than the
    first returns only once the store holds the first job's record."""
    (job,) = jobs
    outcomes = worker.run_shard(jobs, *args)
    directory, first = json.loads(os.environ[FIRST_JOB_ENV])
    if CampaignJob.from_dict(job).job_id == first:
        return outcomes
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        stored = {r["job_id"] for r in ResultStore(directory).tail(0)[0]}
        if first in stored:
            return outcomes
        time.sleep(0.02)
    raise AssertionError("the first job's record was not in the store "
                         "before a later job returned")


def test_pooled_job_is_recorded_before_the_later_jobs_return(
        tmp_path, monkeypatch):
    """On one worker, every later job's task is held until the store has
    the first job's record: it is written as that job returns."""
    from repro.fleet import orchestrator
    jobs = make_jobs()
    directory = str(tmp_path / "run")
    monkeypatch.setenv(FIRST_JOB_ENV, json.dumps(
        [directory, min(job.job_id for job in jobs)]))
    monkeypatch.setattr(orchestrator, "run_shard",
                        _run_shard_once_the_first_is_stored)
    report = run_campaign(jobs, workers=1, campaign_dir=directory)
    assert len(report.ok_records) == len(jobs)


class _Node:
    """A weak-referenceable object to build a reference cycle from."""


#: the pool-side stand-in's weak reference to the cycle its last job left
_LAST_CYCLE = []


def _run_shard_leaving_a_cycle(jobs, *args):
    """Pool-side ``run_shard``: fails if the cycle the previous job left
    behind is still alive, then leaves one of its own in the oldest
    generation, where only a full collection frees it."""
    if _LAST_CYCLE:
        assert _LAST_CYCLE[-1]() is None, \
            "the previous job's reference cycle outlived its task"
    outcomes = worker.run_shard(jobs, *args)
    node = _Node()
    node.self = node
    gc.collect()              # still referenced: promoted, not freed
    _LAST_CYCLE.append(weakref.ref(node))
    return outcomes


def test_a_pool_worker_frees_each_jobs_cycles_before_the_next_job(
        tmp_path, monkeypatch):
    """A job's device is a web of reference cycles: the pool worker runs
    a full collection after each job, so its heap does not keep a pile
    of dead jobs until the collector's own schedule reaches them."""
    from repro.fleet import orchestrator
    jobs = make_jobs()
    monkeypatch.setattr(orchestrator, "run_shard",
                        _run_shard_leaving_a_cycle)
    report = run_campaign(jobs, workers=1, campaign_dir=str(tmp_path))
    assert len(report.ok_records) == len(jobs)


def _payloads_in(value):
    """Job payloads (dicts with ``profile`` and ``sim_cycles``) a JSON
    render of ``value`` walks into."""
    if isinstance(value, dict):
        return int("profile" in value and "sim_cycles" in value) + sum(
            _payloads_in(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_payloads_in(item) for item in value)
    return 0


def test_each_payload_is_rendered_once_and_a_warm_rerun_renders_none(
        tmp_path, monkeypatch):
    renders = []
    iterencode = json.JSONEncoder.iterencode

    def counted(self, o, _one_shot=False):
        renders.append(_payloads_in(o))
        return iterencode(self, o, _one_shot)

    monkeypatch.setattr(json.JSONEncoder, "iterencode", counted)
    jobs = make_jobs()
    cache_dir = str(tmp_path / "cache")
    cold = run_campaign(jobs, workers=0, cache_dir=cache_dir,
                        campaign_dir=str(tmp_path / "cold"))
    assert cold.metrics.executed == len(jobs)
    assert sum(renders) == len(jobs)
    del renders[:]
    warm = run_campaign(jobs, workers=0, cache_dir=cache_dir,
                        campaign_dir=str(tmp_path / "warm"))
    assert warm.metrics.cache_hits == len(jobs)
    assert sum(renders) == 0


def _independent_aggregate(report):
    return json.dumps({
        "jobs": [{"job_id": r["job_id"], "digest": r["digest"],
                  "job": r["job"], "payload": r["payload"]}
                 for r in sorted(report.ok_records,
                                 key=lambda r: r["job_id"])],
        "quarantined": sorted(r["job_id"] for r in report.quarantined),
    }, sort_keys=True, separators=(",", ":")).encode()


def test_aggregate_equals_an_independent_render(baseline, tmp_path):
    """Cold (pooled), warm from the cache, resumed and cluster-finalised:
    each ``aggregate.json`` is the plain render of the report's records,
    whether its payloads were spliced or rendered at the aggregate."""
    from repro.cluster import run_clustered
    root, cold = baseline
    warm = run_campaign(make_jobs(), workers=0,
                        cache_dir=str(root / "cache"),
                        campaign_dir=str(tmp_path / "warm"))
    assert warm.metrics.cache_hits == 3
    resumed_dir = tmp_path / "resumed"
    resumed_dir.mkdir()
    with open(cold.store_path) as handle:
        (resumed_dir / "campaign.jsonl").write_text(handle.readline())
    resumed = run_campaign(make_jobs(), workers=0,
                           campaign_dir=str(resumed_dir), resume=True)
    assert resumed.metrics.resumed == 1
    clustered = run_clustered(make_jobs(), str(tmp_path / "cluster"),
                              nodes=0)
    for report in (cold, warm, resumed, clustered):
        assert len(report.ok_records) == 3
        with open(report.aggregate_path, "rb") as handle:
            assert handle.read() == _independent_aggregate(report)


def test_without_resume_everything_reruns(baseline, tmp_path):
    _, report = baseline
    campaign_dir = tmp_path / "cold"
    campaign_dir.mkdir()
    with open(report.store_path) as handle:
        (campaign_dir / "campaign.jsonl").write_text(handle.read())
    cold = run_campaign(make_jobs(), workers=0,
                        campaign_dir=str(campaign_dir), resume=False)
    assert cold.metrics.resumed == 0
    assert cold.metrics.executed == 3


def test_poison_job_quarantined_not_fatal(tmp_path):
    jobs = make_jobs(2) + [poison_job("crash")]
    report = run_campaign(jobs, workers=2, max_retries=1,
                          campaign_dir=str(tmp_path))
    assert [q["job_id"] for q in report.quarantined] == \
        [j.job_id for j in jobs if j.fault]
    quarantined = report.quarantined[0]
    assert quarantined["attempts"] == 2            # initial + 1 retry
    assert "fault drill" in quarantined["error"]
    assert len(report.ok_records) == 2             # healthy jobs unharmed
    # the aggregate names the quarantined job but carries no payload for it
    aggregate = json.load(open(report.aggregate_path))
    assert aggregate["quarantined"] == [quarantined["job_id"]]
    assert len(aggregate["jobs"]) == 2


def test_flaky_job_recovers_via_retry(tmp_path):
    """A worker raising mid-campaign succeeds on a later attempt."""
    jobs = make_jobs(2) + [CampaignJob(
        name="flaky", domain="engine", device="tc1797", params={},
        cycles=4_000, seed=SEED, fault="flaky:1")]
    report = run_campaign(jobs, workers=2, max_retries=2,
                          campaign_dir=str(tmp_path))
    assert not report.quarantined
    assert report.metrics.retries >= 1
    flaky = [r for r in report.records if r["job"]["name"] == "flaky"][0]
    assert flaky["status"] == "ok" and flaky["attempts"] == 2


def test_worker_process_death_survived(tmp_path):
    """os._exit in a worker breaks the pool; the campaign carries on."""
    jobs = make_jobs(2) + [poison_job("exit", name="killer")]
    report = run_campaign(jobs, workers=2, max_retries=1,
                          campaign_dir=str(tmp_path))
    assert [q["job"]["name"] for q in report.quarantined] == ["killer"]
    assert "worker process died" in report.quarantined[0]["error"]
    assert len(report.ok_records) == 2


def test_worker_death_keeps_the_jobs_that_finished_before_it(tmp_path):
    """A dead worker fails only the jobs whose results had not come back.
    On one worker, ``customer00_transmission`` runs and returns before
    the killer, so it keeps its first result.  The jobs are chosen so
    that a two-shard hash split, ``assign_shards(jobs, 2)``, would put it
    in the killer's shard."""
    jobs = make_jobs(2) + [poison_job("exit", name="killer")]
    report = run_campaign(jobs, workers=1, max_retries=1,
                          campaign_dir=str(tmp_path))
    by_name = {r["job"]["name"]: r for r in report.records}
    earlier = by_name["customer00_transmission"]
    assert earlier["status"] == "ok"
    assert earlier["attempts"] == 1
    assert [q["job"]["name"] for q in report.quarantined] == ["killer"]
    assert "worker process died" in report.quarantined[0]["error"]
    assert len(report.ok_records) == 2


def test_exit_drill_rejected_in_process():
    with pytest.raises(ValueError, match="workers >= 1"):
        CampaignRunner([poison_job("exit")], workers=0)


def test_metrics_and_matrix_render(baseline):
    _, report = baseline
    table = report.metrics.summary_table()
    assert "cache hits" in table and "worker utilization" in table
    rows = campaign_matrix(report.records)
    assert len(rows) == 3
    rendered = matrix_table(rows)
    for row in rows:
        assert row["name"] in rendered
        assert row["ipc"] > 0


def test_volume_weights_trace_derived(baseline):
    _, report = baseline
    weights = volume_weights(report.records)
    assert set(weights) == {c.name for c in population()}
    for record in report.ok_records:
        ipc = record["payload"]["profile"]["parameters"]["tc.ipc"]
        expected = max(1.0, ipc["mean_rate"] * CYCLES)
        assert weights[record["payload"]["name"]] == pytest.approx(expected)


def test_rank_portfolio_consumes_campaign(baseline):
    _, report = baseline
    customers = population()
    entries = rank_portfolio(customers, report.records, tc1797_config(),
                             hardware_options()[:2],
                             work_instructions=20_000, seed=SEED)
    assert len(entries) == 2
    for entry in entries:
        assert set(entry.per_customer_gain) == {c.name for c in customers}


def test_store_append_and_rewrite_roundtrip(tmp_path):
    from repro.fleet import ResultStore
    store = ResultStore(str(tmp_path))
    store.append({"job_id": "b", "x": 1})
    store.append({"job_id": "a", "x": 2})
    assert [r["job_id"] for r in store.load()] == ["b", "a"]
    store.rewrite(sorted(store.load(), key=lambda r: r["job_id"]))
    assert [r["job_id"] for r in store.load()] == ["a", "b"]
    store.rewrite([])
    assert store.load() == []


# -- concurrent tailing (the serve-layer streaming contract) -----------------
def test_store_tail_incremental(tmp_path):
    from repro.fleet import ResultStore
    store = ResultStore(str(tmp_path))
    store.append({"job_id": "a"})
    records, offset = store.tail(0)
    assert [r["job_id"] for r in records] == ["a"]
    records2, offset2 = store.tail(offset)
    assert records2 == [] and offset2 == offset
    store.append({"job_id": "b"})
    records3, offset3 = store.tail(offset)
    assert [r["job_id"] for r in records3] == ["b"]
    assert offset3 > offset


def test_store_tail_ignores_partial_last_line(tmp_path):
    """A half-written record is invisible until its newline lands."""
    from repro.fleet import ResultStore
    store = ResultStore(str(tmp_path))
    store.append({"job_id": "a"})
    with open(store.path, "a") as handle:
        handle.write('{"job_id": "b", "_crc32"')    # writer mid-append
    records, offset = store.tail(0)
    assert [r["job_id"] for r in records] == ["a"]
    with open(store.path, "a") as handle:       # writer finishes the line
        handle.write(": 1}\n")
    # the completed line fails its CRC check — the read-only tailer
    # skips it with a warning but must NOT quarantine
    with pytest.warns(RuntimeWarning, match="tail skipped"):
        records2, offset2 = store.tail(offset)
    assert records2 == []
    assert offset2 > offset
    assert not os.path.exists(store.quarantine_path)


def test_store_tail_races_live_writer_across_flush_boundary(tmp_path):
    """A *valid* record flushed in two halves is delivered exactly once.

    The orchestrator's append is write+flush+fsync, but the OS may make
    the bytes visible to a concurrent reader between the writer's two
    ``write`` syscalls — the tailer can observe the first half of a
    perfectly good line with no newline yet.  The contract: the record
    is invisible while partial, delivered exactly once when its newline
    lands, and the read-only tailer never quarantines anything.
    """
    from repro.fleet import ResultStore
    from repro.durable import seal_record
    store = ResultStore(str(tmp_path))
    store.append({"job_id": "a"})
    line = seal_record({"job_id": "b", "payload": {"ipc": 0.75}}) + "\n"
    split = len(line) // 2                      # mid-record, mid-field
    with open(store.path, "a") as handle:
        handle.write(line[:split])
        handle.flush()                          # first half hits the file
        records, offset = store.tail(0)
        assert [r["job_id"] for r in records] == ["a"]
        seen_partial = store.tail(offset)
        assert seen_partial == ([], offset)     # half a line is nothing
        handle.write(line[split:])
        handle.flush()                          # newline lands
    records2, offset2 = store.tail(offset)
    assert [r["job_id"] for r in records2] == ["b"]
    assert records2[0]["payload"] == {"ipc": 0.75}
    # delivered once: the cursor moved past it, a re-poll yields nothing
    assert store.tail(offset2) == ([], offset2)
    assert not os.path.exists(store.quarantine_path)


def test_store_tail_holds_position_on_shrink(tmp_path):
    from repro.fleet import ResultStore
    store = ResultStore(str(tmp_path))
    for job_id in ("a", "b", "c"):
        store.append({"job_id": job_id})
    records, offset = store.tail(0)
    assert len(records) == 3
    store.rewrite([{"job_id": "a"}])            # file shrank underneath
    records2, offset2 = store.tail(offset)
    assert records2 == [] and offset2 == offset


def test_store_tail_holds_position_on_same_size_rewrite(tmp_path):
    """An offset off every record boundary must not desync the tailer.

    No run rewrites its store once started, but the HTTP results page
    takes its offset from the client, and a resumed run replaces the
    store a tailer may hold an offset into.  Here the same records come
    back sorted — roughly the same byte count — so an old offset can
    land mid-line in the new content.  The tailer must detect the lost
    record boundary (the byte before its offset is no longer a newline)
    and hold position silently instead of warning about "damage" it
    manufactured itself.
    """
    import warnings as _warnings
    from repro.fleet import ResultStore
    store = ResultStore(str(tmp_path))
    for job_id in ("b", "c", "a"):              # commit order != sorted
        store.append({"job_id": job_id, "payload": {"ipc": 0.5}})
    records, _ = store.tail(0)
    assert len(records) == 3
    # a finalize-style rewrite happens under the tailer: same records,
    # sorted — the byte count barely moves but every boundary shifts
    store.rewrite(sorted((r for r in store.load()),
                         key=lambda r: r["job_id"]))
    content = open(store.path, "rb").read()
    first_line_end = content.index(b"\n") + 1
    mid_offset = first_line_end + 7             # provably mid-record now
    assert content[mid_offset - 1:mid_offset] != b"\n"
    with _warnings.catch_warnings():
        _warnings.simplefilter("error")         # any warning fails the test
        held = store.tail(mid_offset)
    assert held == ([], mid_offset)
    # an aligned offset on the rewritten file still works normally
    records2, _ = store.tail(first_line_end)
    assert [r["job_id"] for r in records2] == ["b", "c"]


def test_store_tail_missing_file(tmp_path):
    from repro.fleet import ResultStore
    store = ResultStore(str(tmp_path))
    assert store.tail(0) == ([], 0)


def test_store_load_skips_unterminated_tail(tmp_path):
    """load() must tolerate a concurrent writer's partial last line."""
    from repro.fleet import ResultStore
    store = ResultStore(str(tmp_path))
    store.append({"job_id": "a"})
    with open(store.path, "a") as handle:
        handle.write('{"job_id": "b"')
    with pytest.warns(RuntimeWarning, match="unterminated partial tail"):
        records = store.load()
    assert [r["job_id"] for r in records] == ["a"]
    assert not os.path.exists(store.quarantine_path)


# -- cooperative preemption (the STOP file every executor reads) -------------
def test_preempted_campaign_resumes_byte_identical(tmp_path, monkeypatch):
    """A STOP file written after the second checkpoint save stops the run
    at that boundary; once it is deleted, resume finishes the same bytes."""
    jobs = make_jobs(2)
    reference = run_campaign(jobs, workers=0,
                             campaign_dir=str(tmp_path / "ref"))
    run_dir = str(tmp_path / "run")
    saves = []
    save = worker._save

    def save_then_stop_after_two(*args):
        save(*args)
        saves.append(None)
        if len(saves) == 2:
            request_stop(run_dir)

    monkeypatch.setattr(worker, "_save", save_then_stop_after_two)
    first = run_campaign(jobs, workers=0, campaign_dir=run_dir,
                         checkpoint_every=4_000)
    monkeypatch.undo()
    assert first.preempted
    assert first.aggregate_path is None         # no aggregate mid-flight
    assert len(first.records) < 2
    clear_stop(run_dir)
    second = run_campaign(jobs, workers=0, campaign_dir=run_dir,
                          checkpoint_every=4_000, resume=True)
    assert not second.preempted
    assert second.metrics.checkpoint_resumes >= 1
    with open(reference.aggregate_path, "rb") as a, \
            open(second.aggregate_path, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("workers", [0, 2])
def test_stop_before_first_job_completes_nothing(tmp_path, workers):
    request_stop(str(tmp_path))
    report = run_campaign(make_jobs(1), workers=workers,
                          campaign_dir=str(tmp_path))
    assert report.preempted
    assert report.records == []
    assert not report.quarantined


def stop_at_first_checkpoint(run_dir, timeout_s=60.0):
    """Write ``run_dir``'s STOP file once any job checkpoint lands."""
    checkpoints = os.path.join(run_dir, "checkpoints")

    def watch():
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if os.path.isdir(checkpoints) and any(
                    name.endswith(".ckpt")
                    for name in os.listdir(checkpoints)):
                request_stop(run_dir)
                return
            time.sleep(0.001)

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    return watcher


def test_pooled_campaign_stops_on_stop_file_and_resumes(tmp_path):
    """Pool workers read the STOP file too: a workers=2 campaign stops at
    its next job or checkpoint boundary, and once the file is deleted a
    resumed run writes the reference aggregate bytes."""
    jobs = build_matrix(population(3), cycle_budgets=(40_000,), seed=SEED)
    reference = run_campaign(jobs, workers=0,
                             campaign_dir=str(tmp_path / "ref"))
    run_dir = str(tmp_path / "run")
    watcher = stop_at_first_checkpoint(run_dir)
    first = run_campaign(jobs, workers=2, campaign_dir=run_dir,
                         checkpoint_every=2_000)
    watcher.join(timeout=60.0)
    assert not watcher.is_alive()
    assert first.preempted
    assert first.aggregate_path is None
    assert len(first.records) < len(jobs)
    assert not first.quarantined
    clear_stop(run_dir)
    second = run_campaign(jobs, workers=2, campaign_dir=run_dir,
                          checkpoint_every=2_000, resume=True)
    assert not second.preempted
    assert second.metrics.resumed == len(first.records)
    with open(reference.aggregate_path, "rb") as a, \
            open(second.aggregate_path, "rb") as b:
        assert a.read() == b.read()
