"""Cluster coordination units + the end-to-end in-process guarantees.

Covers the coordinator artifacts (manifest validation, the job plan
every node computes, one lease per job, deduped finalization), the
node's and the local runner's refusals (another release's manifest, a
campaign every node left unfinished, a negative node count), the lease
clock (a node saves and renews only once a third of the TTL has passed,
and a stop saves first; the pool's explicit cadence saves at every
boundary), the multi-writer hardening of the result store (advisory
lock + two *processes* appending concurrently) and the content-addressed
cache (atomic writes, digest / CRC re-verification, quarantine-on-damage),
and the flagship property: an in-process cluster run produces an
``aggregate.json`` byte-identical to a plain single-node campaign.
(Node *death* is exercised by the subprocess drill in
``test_cluster_chaos.py``.)
"""

import json
import os
import subprocess
import sys
import textwrap
import time
import types

import pytest

from repro import __version__
from repro.checkpoint import load_latest_checkpoint
from repro.cli import main
from repro.cluster import (ClusterNode, cluster_status, dedupe_records,
                           job_plan, local, request_stop, run_clustered,
                           submit)
from repro.cluster import node as node_module
from repro.cluster.coordinator import CLUSTER_JOURNAL_NAME, load_manifest
from repro.cluster.lease import LeaseManager
from repro.durable import file_lock, seal_record, unseal_record
from repro.errors import ClusterError, ConfigurationError
from repro.fleet import worker
from repro.fleet.api import run_campaign
from repro.fleet.cache import QUARANTINE_SUFFIX, ResultCache
from repro.fleet.spec import CampaignJob
from repro.fleet.store import ResultStore, clear_stop
from repro.resilience.journal import AdmissionJournal

CYCLES = 2_000
EVERY = 500


def make_jobs(n=4, cycles=CYCLES, **overrides):
    return [CampaignJob(name=f"c{i}", domain="engine", device="tc1797",
                        params={}, cycles=cycles, seed=7, **overrides)
            for i in range(n)]


# --- coordinator artifacts --------------------------------------------------
def test_submit_validates(tmp_path):
    cdir = str(tmp_path / "c")
    with pytest.raises(ConfigurationError):
        submit(cdir, [])                       # no jobs
    jobs = make_jobs(2)
    with pytest.raises(ConfigurationError):
        submit(cdir, jobs + jobs)              # duplicates
    with pytest.raises(ConfigurationError):    # a job that kills its node
        submit(cdir, make_jobs(1, fault="exit"))
    with pytest.raises(ConfigurationError):
        submit(cdir, jobs, checkpoint_every=0)
    submit(cdir, jobs)
    with pytest.raises(ConfigurationError):    # one dir = one campaign
        submit(cdir, jobs)


def test_fault_plan_disables_shared_cache(tmp_path):
    plan = {"seed": 1, "rules": []}
    submit(str(tmp_path / "a"), make_jobs(1), fault_plan=plan)
    manifest = load_manifest(str(tmp_path / "a"))
    assert manifest["cache"] is False
    submit(str(tmp_path / "b"), make_jobs(1))
    assert load_manifest(str(tmp_path / "b"))["cache"] is True


def test_publish_plan_is_deterministic(tmp_path):
    """Nothing is published: every node computes the same job plan from
    the manifest, each job under its digest, in job-id order whatever
    the manifest's order."""
    cdir = str(tmp_path)
    jobs = make_jobs(5)
    submit(cdir, jobs)
    manifest = load_manifest(cdir)
    plan = job_plan(manifest)
    expected = [(job.digest, job.to_dict())
                for job in sorted(jobs, key=lambda job: job.job_id)]
    assert list(plan.items()) == expected
    reordered = dict(manifest, jobs=list(reversed(manifest["jobs"])))
    assert list(job_plan(reordered).items()) == expected
    for node_id in ("n1", "n2"):
        assert list(ClusterNode(cdir, node_id=node_id).jobs.items()) == \
            expected


def test_node_refuses_another_releases_manifest(tmp_path):
    """Job ids and digests hash the release, so a node must not join a
    campaign another release submitted."""
    cdir = str(tmp_path)
    submit(cdir, make_jobs(2))
    manifest = load_manifest(cdir)
    manifest["version"] = "0.0.0-other"
    with open(os.path.join(cdir, "manifest.json"), "w") as handle:
        handle.write(seal_record(manifest) + "\n")
    with pytest.raises(ClusterError) as refused:
        ClusterNode(cdir, node_id="n1")
    assert "0.0.0-other" in str(refused.value)
    assert __version__ in str(refused.value)


def test_every_node_exiting_unfinished_is_an_error(tmp_path, monkeypatch):
    """Nodes that all exit before the campaign is final, with no STOP
    file and no passed deadline, fail the run: it is not a preemption
    for a caller to requeue."""
    # every forked node exits 1 at once, as a crashing node would
    monkeypatch.setattr(local, "_node_child", lambda *args: 1)
    with pytest.raises(ClusterError, match="not final"):
        run_clustered(make_jobs(2), str(tmp_path / "lib"), nodes=2)
    with pytest.raises(SystemExit, match="not final"):
        main(["cluster", "run", "--cluster-dir", str(tmp_path / "cli"),
              "--count", "2", "--cycles", "2000", "--nodes", "2"])


def test_run_clustered_checks_nodes_before_submitting(tmp_path):
    cdir = str(tmp_path)
    with pytest.raises(ConfigurationError, match="nodes >= 1"):
        run_clustered(make_jobs(2), cdir, nodes=-1)
    assert not os.path.exists(os.path.join(cdir, "manifest.json"))
    report = run_clustered(make_jobs(2), cdir, nodes=0,
                           checkpoint_every=EVERY)
    assert len(report.ok_records) == 2 and report.aggregate_path


def test_dedupe_records_first_commit_wins():
    records = [
        {"job_id": "b", "status": "ok", "attempts": 1},
        {"job_id": "a", "status": "ok", "attempts": 2},
        {"job_id": "b", "status": "ok", "attempts": 9},   # benign dup
    ]
    deduped = dedupe_records(records)
    assert [r["job_id"] for r in deduped] == ["a", "b"]
    assert deduped[1]["attempts"] == 1


# --- result store: multi-writer hardening -----------------------------------
APPENDER = textwrap.dedent("""
    import sys
    from repro.fleet.store import ResultStore
    store = ResultStore(sys.argv[1])
    who = sys.argv[2]
    for i in range(40):
        store.append({"job_id": f"{who}-{i:03d}", "status": "ok",
                      "payload": {"who": who, "i": i}})
""")


def test_concurrent_append_from_two_processes(tmp_path):
    """Two writer processes interleave whole records, never bytes: every
    line loads back intact and nothing is quarantined."""
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                       "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs = [subprocess.Popen([sys.executable, "-c", APPENDER,
                               str(tmp_path), who], env=env)
             for who in ("alpha", "beta")]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    store = ResultStore(str(tmp_path))
    records = store.load()
    assert len(records) == 80
    assert len({r["job_id"] for r in records}) == 80
    assert not os.path.exists(store.quarantine_path)


def test_store_lock_serializes_read_then_append(tmp_path):
    store = ResultStore(str(tmp_path))
    with file_lock(store.lock_path):
        assert store.load() == []
        store_b = ResultStore(str(tmp_path))   # an uncontended reader
        assert store_b.load() == []
    store.append({"job_id": "x", "status": "ok"})
    assert len(store.load()) == 1


def test_fenced_append_rejects_before_writing(tmp_path):
    calls = []

    def fence():
        calls.append(True)
        raise RuntimeError("stale")

    store = ResultStore(str(tmp_path))
    with pytest.raises(RuntimeError):
        store.append({"job_id": "x"}, fence=fence)
    assert calls and not os.path.exists(store.path)


# --- result cache: multi-node hardening -------------------------------------
def test_cache_quarantines_unparseable_entry(tmp_path):
    cache = ResultCache(str(tmp_path))
    job = make_jobs(1)[0]
    path = cache.store(job, {"name": job.name, "profile": {}})
    with open(path, "w") as handle:
        handle.write("{torn")
    with pytest.warns(RuntimeWarning):
        assert cache.lookup(job) is None
    assert os.path.exists(path + QUARANTINE_SUFFIX)
    assert not os.path.exists(path)            # never served again
    assert cache.lookup(job) is None           # plain miss now


def test_cache_rejects_foreign_digest(tmp_path):
    cache = ResultCache(str(tmp_path))
    a, b = make_jobs(2)
    path_a = cache.store(a, {"name": a.name})
    # a foreign entry copied under the wrong name must not be a hit
    os.replace(path_a, os.path.join(str(tmp_path), f"{b.digest}.json"))
    with pytest.warns(RuntimeWarning):
        assert cache.lookup(b) is None


def test_cache_rejects_bitflipped_payload(tmp_path):
    cache = ResultCache(str(tmp_path))
    job = make_jobs(1)[0]
    path = cache.store(job, {"name": job.name, "value": 1})
    with open(path) as handle:
        entry = json.load(handle)
    entry["payload"]["value"] = 2              # flip a payload bit
    with open(path, "w") as handle:
        json.dump(entry, handle)
    with pytest.warns(RuntimeWarning):
        assert cache.lookup(job) is None


def test_cache_store_is_atomic_and_verified(tmp_path):
    cache = ResultCache(str(tmp_path))
    job = make_jobs(1)[0]
    payload = {"name": job.name, "profile": {"parameters": {}}}
    cache.store(job, payload)
    assert not [n for n in os.listdir(str(tmp_path))
                if n.endswith(".tmp")]         # no droppings
    with open(cache._path(job.digest)) as handle:
        entry = unseal_record(handle.read())
    assert entry["payload"] == payload
    assert cache.lookup(job) == payload


def test_cache_quarantines_unsealed_entry(tmp_path):
    """An entry without its ``_crc32`` seal is damage, not a legacy hit:
    it is quarantined and the job re-executes."""
    cache = ResultCache(str(tmp_path))
    job = make_jobs(1)[0]
    path = cache.store(job, {"name": job.name, "value": 1})
    with open(path) as handle:
        entry = json.load(handle)
    del entry["_crc32"]
    with open(path, "w") as handle:
        json.dump(entry, handle)
    with pytest.warns(RuntimeWarning, match="CRC"):
        assert cache.lookup(job) is None
    assert os.path.exists(path + QUARANTINE_SUFFIX)


# --- end-to-end: in-process cluster runs ------------------------------------
def test_cluster_aggregate_matches_single_node_bytes(tmp_path):
    """The acceptance criterion: a clustered campaign's aggregate is
    byte-identical to a plain ``run_campaign`` of the same jobs."""
    jobs = make_jobs(4)
    report = run_clustered(jobs, str(tmp_path / "cluster"), nodes=0,
                           checkpoint_every=EVERY)
    assert report.aggregate_path and not report.preempted
    assert len(report.ok_records) == 4
    ref = run_campaign(jobs, workers=0,
                       campaign_dir=str(tmp_path / "single"),
                       checkpoint_every=EVERY)
    with open(report.aggregate_path, "rb") as handle:
        cluster_bytes = handle.read()
    with open(ref.aggregate_path, "rb") as handle:
        assert handle.read() == cluster_bytes


def test_cold_cluster_run_looks_up_every_job_once(tmp_path, monkeypatch):
    """An empty cache is still a cache: each of N cold jobs makes exactly
    one lookup, and no job lists the shared cache directory."""
    lookups = []
    real_lookup = ResultCache.lookup

    def counting_lookup(self, job):
        lookups.append(job.job_id)
        return real_lookup(self, job)

    def no_listing(self):
        raise AssertionError("the cluster node listed the shared cache")

    monkeypatch.setattr(ResultCache, "lookup", counting_lookup)
    monkeypatch.setattr(ResultCache, "__len__", no_listing)
    jobs = make_jobs(3)
    report = run_clustered(jobs, str(tmp_path), nodes=0,
                           checkpoint_every=EVERY)
    assert report.metrics.executed == 3
    assert sorted(lookups) == sorted(job.job_id for job in jobs)


def test_cluster_claims_one_lease_per_job(tmp_path):
    """The job is the lease resource, named by its digest; the one other
    resource a campaign claims is ``finalize``."""
    jobs = make_jobs(3)
    run_clustered(jobs, str(tmp_path), nodes=0, checkpoint_every=EVERY)
    journal = AdmissionJournal(str(tmp_path), name=CLUSTER_JOURNAL_NAME)
    claimed = [record["resource"] for record in journal.replay()
               if record["op"] == "claim"]
    assert sorted(claimed) == sorted([job.digest for job in jobs] +
                                     ["finalize"])


def test_cluster_quarantines_poison_jobs(tmp_path):
    jobs = make_jobs(3) + [CampaignJob(name="poison", domain="engine",
                                       device="tc1797", params={},
                                       cycles=CYCLES, seed=7,
                                       fault="crash")]
    report = run_clustered(jobs, str(tmp_path), nodes=0,
                           checkpoint_every=EVERY, max_retries=1)
    assert len(report.ok_records) == 3
    assert [r["job_id"] for r in report.quarantined] == \
        [j.job_id for j in jobs if j.fault]
    assert report.quarantined[0]["attempts"] == 2


def test_cluster_flaky_job_retries_in_place(tmp_path):
    jobs = make_jobs(2) + [CampaignJob(name="flaky", domain="engine",
                                       device="tc1797", params={},
                                       cycles=CYCLES, seed=7,
                                       fault="flaky:2")]
    report = run_clustered(jobs, str(tmp_path), nodes=0,
                           checkpoint_every=EVERY, max_retries=3)
    assert len(report.ok_records) == 3 and not report.quarantined
    flaky = [r for r in report.records if r["job"]["name"] == "flaky"][0]
    assert flaky["attempts"] == 3              # failed twice, then ok


def test_second_node_resumes_a_half_finished_campaign(tmp_path):
    """A node joining after records already exist skips committed jobs
    (the resume scan) and completes the rest."""
    cdir = str(tmp_path)
    jobs = make_jobs(4)
    submit(cdir, jobs, checkpoint_every=EVERY)
    first = ClusterNode(cdir, node_id="n1")
    lease = first.leases.claim(next(iter(first.jobs)))
    assert first._run_job(lease) == "done"
    done_before = first.jobs_done
    assert done_before == 1
    second = ClusterNode(cdir, node_id="n2")
    summary = second.run()
    assert summary["state"] == "done"
    assert second.jobs_done == 4 - done_before
    status = cluster_status(cdir)
    assert status["final"] and status["records"]["ok"] == 4


class _OpenBreaker:
    """A circuit breaker that refuses every job."""

    def allow(self):
        return False

    def retry_after_s(self):
        return 1.0


def _claimed_job(tmp_path, deadline_s=None, clock=time.time):
    """A node holding the lease on the first job of a 2-job campaign."""
    cdir = str(tmp_path)
    submit(cdir, make_jobs(2), checkpoint_every=EVERY,
           deadline_s=deadline_s)
    node = ClusterNode(cdir, node_id="n1", clock=clock)
    lease = node.leases.claim(next(iter(node.jobs)))
    return node, lease


def _ticking(step_s):
    """A clock that moves ``step_s`` forward at every reading (0: frozen)."""
    now = [1_000.0]

    def clock():
        now[0] += step_s
        return now[0]
    return clock


def _worker_clock(monkeypatch, clock):
    """Drive the fleet worker's save timer (its ``time.monotonic``)."""
    fake = types.SimpleNamespace(**vars(time))
    fake.monotonic = clock
    monkeypatch.setattr(worker, "time", fake)


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name``; returns the (growing) list."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counting)
    return calls


def test_run_job_stop_file_reports_stopped_and_releases(tmp_path):
    node, lease = _claimed_job(tmp_path)
    request_stop(str(tmp_path))
    assert node._run_job(lease) == "stopped"
    assert node.leases.read(lease.resource) is None
    assert node.jobs_done == 0 and node.fenced == 0


def test_run_job_passed_deadline_reports_deadline(tmp_path):
    node, lease = _claimed_job(tmp_path, deadline_s=1e-6)
    assert node._run_job(lease) == "deadline"
    assert node.leases.read(lease.resource) is None


def test_run_job_refused_renewal_reports_fenced(tmp_path, monkeypatch):
    # a clock that passes a third of the TTL at each reading: the check
    # before the attempt is already due to renew
    node, lease = _claimed_job(tmp_path, clock=_ticking(10.0))
    monkeypatch.setattr(node.leases, "renew", lambda held: None)
    assert node._run_job(lease) == "fenced"
    assert node.fenced == 1
    assert node.jobs_done == 0


def test_job_saves_and_renews_on_the_lease_clock(tmp_path, monkeypatch):
    """A node's job reaches a boundary every ``checkpoint_every`` cycles
    and checks the campaign's STOP file there, but saves and renews only
    once a third of the TTL (10 s here) has passed: never while both
    clocks stand still, at every boundary once each reading passes it."""
    saves = _count_calls(monkeypatch, worker, "_save")
    renewals = _count_calls(monkeypatch, LeaseManager, "renew")
    checks = _count_calls(monkeypatch, node_module, "campaign_stop")
    _worker_clock(monkeypatch, _ticking(0.0))
    node, lease = _claimed_job(tmp_path / "frozen", clock=_ticking(0.0))
    assert node._run_job(lease) == "done"
    # CYCLES / EVERY = 4 chunks: a check before the attempt and at each
    # of the 3 boundaries
    assert (len(checks), len(saves), len(renewals)) == (4, 0, 0)

    del checks[:], saves[:], renewals[:]
    _worker_clock(monkeypatch, _ticking(10.0))
    node, lease = _claimed_job(tmp_path / "ticking", clock=_ticking(10.0))
    assert node._run_job(lease) == "done"
    assert (len(checks), len(saves), len(renewals)) == (4, 3, 4)
    assert node.leases.read(lease.resource) is None    # released


def test_stop_before_the_first_save_saves_there_and_resumes(
        tmp_path, monkeypatch):
    """A STOP seen at a boundary that saved nothing saves first, so the
    checkpoint holds that exact cycle, and a resumed campaign finishes
    with the aggregate bytes of an undisturbed run."""
    cdir = str(tmp_path / "cluster")
    checks = []

    def stop_at_second_boundary(directory, deadline):
        checks.append(directory)
        if len(checks) == 3:           # before the attempt, 500, 1000
            request_stop(directory)
        return worker.campaign_stop(directory, deadline)

    _worker_clock(monkeypatch, _ticking(0.0))
    monkeypatch.setattr(node_module, "campaign_stop",
                        stop_at_second_boundary)
    node, lease = _claimed_job(cdir, clock=_ticking(0.0))
    assert node._run_job(lease) == "stopped"
    monkeypatch.setattr(node_module, "campaign_stop", worker.campaign_stop)
    path = worker.checkpoint_path(os.path.join(cdir, "checkpoints"),
                                  node.jobs[lease.resource])
    _, meta, _ = load_latest_checkpoint(path)
    assert meta["cycle"] == 2 * EVERY
    clear_stop(cdir)

    restores = []
    restore = worker._try_restore

    def recording_restore(*args):
        restores.append(restore(*args))
        return restores[-1]
    monkeypatch.setattr(worker, "_try_restore", recording_restore)
    summary = ClusterNode(cdir, node_id="n2", clock=_ticking(0.0)).run()
    assert summary["state"] == "done"
    assert [cycle for cycle in restores if cycle] == [2 * EVERY]
    ref = run_campaign(make_jobs(2), workers=0,
                       campaign_dir=str(tmp_path / "single"))
    with open(ref.aggregate_path, "rb") as a, \
            open(summary["aggregate_path"], "rb") as b:
        assert a.read() == b.read()


def test_pool_checkpoint_every_saves_at_every_boundary(tmp_path,
                                                      monkeypatch):
    """An explicit ``checkpoint_every`` on the pool (E14, ``repro
    serve``) carries no lease clock: each of the 3 boundaries of each
    job saves, however little time passed."""
    _worker_clock(monkeypatch, _ticking(0.0))
    report = run_campaign(make_jobs(2), workers=0,
                          campaign_dir=str(tmp_path),
                          checkpoint_every=EVERY)
    assert report.metrics.checkpoint_saves == 2 * (CYCLES // EVERY - 1)


def test_open_breaker_node_reports_the_real_stop_reason(tmp_path):
    """A node whose breaker refuses every job claims nothing; a passed
    deadline must still end it as ``"deadline"``, not ``"stopped"``."""
    cdir = str(tmp_path)
    submit(cdir, make_jobs(2), checkpoint_every=EVERY, deadline_s=1e-6)
    node = ClusterNode(cdir, node_id="n1", breaker=_OpenBreaker())
    assert node.run()["state"] == "deadline"
    assert node.leases.leases() == []


def test_cluster_status_shapes(tmp_path):
    empty = cluster_status(str(tmp_path / "nothing"))
    assert empty["state"] == "empty"
    cdir = str(tmp_path / "c")
    submit(cdir, make_jobs(2))
    status = cluster_status(cdir)
    assert status["total_jobs"] == 2 and status["done_jobs"] == 0
    run_clustered(None, cdir, nodes=0)
    status = cluster_status(cdir)
    assert status["final"]
    assert status["done_jobs"] == status["total_jobs"]
    # the plan is computed on each node, never written
    assert not {"plan.json", "batches"} & set(os.listdir(cdir))
    assert status["records"] == {"ok": 2, "quarantined": 0}
    assert status["nodes"] and status["nodes"][0]["node"] == "node-local"


def test_shared_cache_dedupes_across_campaigns(tmp_path):
    """Two cluster campaigns over different dirs share nothing, but a
    second run over a *pre-seeded* store dir serves from cache files a
    previous node wrote (the content-addressed dedupe layer)."""
    jobs = make_jobs(3)
    report_a = run_clustered(jobs, str(tmp_path / "a"), nodes=0,
                             checkpoint_every=EVERY)
    assert report_a.metrics.executed == 3
    # copy the shared cache into the new cluster dir wholesale
    os.makedirs(str(tmp_path / "b"))
    import shutil
    shutil.copytree(str(tmp_path / "a" / "cache"),
                    str(tmp_path / "b" / "cache"))
    report_b = run_clustered(jobs, str(tmp_path / "b"), nodes=0,
                             checkpoint_every=EVERY)
    assert report_b.metrics.cache_hits == 3
    assert report_b.metrics.executed == 0
    with open(report_a.aggregate_path, "rb") as handle:
        bytes_a = handle.read()
    with open(report_b.aggregate_path, "rb") as handle:
        assert handle.read() == bytes_a
