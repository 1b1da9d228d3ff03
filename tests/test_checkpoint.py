"""Checkpoint/restore: determinism, rejection, and crash-safe fleet resume.

The contract under test (docs/checkpoint.md): restoring a checkpoint into
a freshly built same-spec device and running on is *byte-identical* to a
run that was never interrupted; any damaged checkpoint is rejected with a
retryable :class:`~repro.errors.CheckpointError` before a single value
reaches a component; and a fleet campaign with ``checkpoint_every`` set
resumes crashed attempts mid-run yet still produces the exact aggregate
an undisturbed campaign writes.
"""

import json
import os
import re
import warnings

import pytest

from repro.checkpoint import (CheckpointError, PREV_SUFFIX, checkpoint_info,
                              load_checkpoint, load_latest_checkpoint,
                              message_log_path, save_checkpoint)
from repro.core.profiling import ProfilingSession, spec as pspec
from repro.durable import seal_record
from repro.core.profiling.export import result_to_json
from repro.errors import CampaignStopped, ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.fleet import CampaignJob, run_campaign
from repro.fleet.worker import checkpoint_path, execute_job
from repro.fleet.store import ResultStore
from repro.obs import telemetry
from repro.soc.config import tc1797_config
from repro.workloads import BodyGatewayScenario, EngineControlScenario

CYCLES = 40_000
MID = 15_000


def build_device(scenario_cls=EngineControlScenario, seed=2008):
    """One profiled device; the session must exist on *every* device a
    payload is read from, so it is constructed at build time on all of
    them (it registers MCDS rate counters and records its start cycle)."""
    device = scenario_cls().build(tc1797_config(), {}, seed=seed)
    session = ProfilingSession(
        device, pspec.engine_parameter_set(ipc_resolution=256, rate_per=100))
    return device, session


def payload(device, session):
    return result_to_json(session.result(), compact=True)


# -- tentpole: resume-then-run is byte-identical -----------------------------

def test_resume_is_byte_identical(tmp_path):
    path = str(tmp_path / "mid.ckpt")
    d1, s1 = build_device()          # uninterrupted control
    d1.run(CYCLES)

    d2, _ = build_device()           # interrupted at MID
    d2.run(MID)
    d2.checkpoint(path)

    d3, s3 = build_device()          # fresh device, resumed
    meta = d3.restore(path)
    assert meta["cycle"] == MID
    assert d3.cycle == MID
    d3.run(CYCLES - MID)

    assert d3.cycle == d1.cycle
    assert d3.oracle() == d1.oracle()
    assert payload(d3, s3) == payload(d1, s1)


def test_rotation_keeps_a_prev_fallback(tmp_path):
    path = str(tmp_path / "rot.ckpt")
    device, _ = build_device()
    device.run(10_000)
    device.checkpoint(path)
    device.run(10_000)
    device.checkpoint(path)          # rotates the first to .prev
    assert os.path.exists(path + PREV_SUFFIX)
    _, meta_prev = load_checkpoint(path + PREV_SUFFIX)
    _, meta_main = load_checkpoint(path)
    assert (meta_prev["cycle"], meta_main["cycle"]) == (10_000, 20_000)

    # damage the newest file: the latest-loader falls back to .prev
    with open(path, "r+") as handle:
        text = handle.read()
        handle.seek(0)
        handle.write(text[: len(text) // 2])
        handle.truncate()
    body, meta, used = load_latest_checkpoint(path)
    assert used == path + PREV_SUFFIX
    assert meta["cycle"] == 10_000

    # and restoring the fallback still gives byte-identical resume
    fresh, s_fresh = build_device()
    fresh.soc._ensure_order()
    fresh.soc.sim.restore_state(body)
    fresh.run(CYCLES - 10_000)
    control, s_control = build_device()
    control.run(CYCLES)
    assert payload(fresh, s_fresh) == payload(control, s_control)


# -- rejection: every damage mode is caught before any state moves -----------

def _saved_checkpoint(tmp_path, name="x.ckpt"):
    path = str(tmp_path / name)
    device, _ = build_device()
    device.run(MID)
    device.checkpoint(path)
    return path


def test_corrupt_checkpoint_rejected_retryably(tmp_path):
    path = _saved_checkpoint(tmp_path)
    with open(path, "r+") as handle:
        text = handle.read()
        mid = len(text) // 2
        handle.seek(0)
        handle.write(text[:mid]
                     + ("0" if text[mid] != "0" else "1") + text[mid + 1:])
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert info.value.retryable is True
    assert isinstance(info.value, ReproError)


def test_truncated_checkpoint_rejected(tmp_path):
    path = _saved_checkpoint(tmp_path)
    with open(path, "r+") as handle:
        text = handle.read()
        handle.seek(0)
        handle.write(text[: len(text) // 3])
        handle.truncate()
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(path)
    assert load_latest_checkpoint(path) is None    # no .prev either


def test_schema_mismatch_rejected(tmp_path):
    path = _saved_checkpoint(tmp_path)
    with open(path) as handle:
        document = json.load(handle)
    document["schema"] = 999                      # intact, but foreign
    with open(path, "w") as handle:
        handle.write(seal_record(document))
    with pytest.raises(CheckpointError, match="schema"):
        load_checkpoint(path)


def test_restore_into_wrong_device_rejected(tmp_path):
    path = _saved_checkpoint(tmp_path)            # engine topology
    other, _ = build_device(BodyGatewayScenario)  # different roster
    other.soc._ensure_order()
    with pytest.raises(CheckpointError):
        other.restore(path)
    # validation happens before mutation: the device is still pristine
    assert other.cycle == 0


def test_missing_file_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(str(tmp_path / "nope.ckpt"))
    assert load_latest_checkpoint(str(tmp_path / "nope.ckpt")) is None


# -- injected damage: the checkpoint.* fault sites ---------------------------

@pytest.mark.parametrize("site", ["checkpoint.corrupt",
                                  "checkpoint.truncated"])
def test_injected_checkpoint_damage_is_rejected(tmp_path, site):
    path = str(tmp_path / "damaged.ckpt")
    device, _ = build_device()
    device.run(MID)
    plan = FaultPlan(rules=({"site": site, "max_faults": 1},))
    with FaultInjector(plan, scope="t") as injector:
        device.checkpoint(path)
    assert injector.injected == {site: 1}
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert load_latest_checkpoint(path) is None


# -- telemetry: the repro_checkpoint_* metric families -----------------------

def test_checkpoint_metrics_and_events(tmp_path):
    path = str(tmp_path / "tel.ckpt")
    with telemetry(run_id="ckpt") as tel:
        device, _ = build_device()
        device.run(MID)
        device.checkpoint(path)
        fresh, _ = build_device()
        fresh.restore(path)
        # a rejected restore counts separately
        bad = str(tmp_path / "bad.ckpt")
        with open(bad, "w") as handle:
            handle.write("{not a checkpoint")
        assert load_latest_checkpoint(bad) is None
        reg = tel.registry
        assert reg.get("repro_checkpoint_writes_total") \
            .labels("emulation_device").value == 1
        assert reg.get("repro_checkpoint_bytes_total").labels().value \
            == os.path.getsize(path)
        restores = reg.get("repro_checkpoint_restores_total")
        assert restores.labels("success").value == 1
        assert restores.labels("rejected").value == 1
        names = [e["event"] for e in tel.events.records]
        assert "checkpoint.written" in names
        assert "checkpoint.restored" in names


def test_checkpoint_info(tmp_path):
    path = _saved_checkpoint(tmp_path)
    info = checkpoint_info(path)
    assert info["meta"]["cycle"] == MID
    assert "tricore" in info["components"]
    assert info["size_bytes"] == os.path.getsize(path)
    assert "log" not in info

    # a fleet worker's checkpoint: the roster sits under body["sim"] and
    # the EMEM FIFO in the job's message log
    job = CampaignJob(name="engine-a", domain="engine", device="tc1797",
                      cycles=3 * MID)
    checkpoint = {"dir": str(tmp_path / "jobs"), "every": MID}
    saves = []

    def stop_at_the_second_save():
        saves.append(None)
        return "preempted" if len(saves) == 2 else None
    with pytest.raises(CampaignStopped):
        execute_job(job.to_dict(), checkpoint=checkpoint,
                    should_stop=stop_at_the_second_save)
    path = checkpoint_path(checkpoint["dir"], job.to_dict())
    info = checkpoint_info(path)
    assert info["meta"]["cycle"] == 2 * MID
    assert "tricore" in info["components"]
    assert info["size_bytes"] == os.path.getsize(path)
    log = message_log_path(path)
    assert info["log"] == {"path": log, "segments": 2,
                           "bytes": os.path.getsize(log)}
    assert checkpoint_info(path + PREV_SUFFIX)["log"] == info["log"]


# -- fleet: crash-safe campaign persistence ----------------------------------

JOBS = [
    CampaignJob(name="engine-a", domain="engine", device="tc1797",
                cycles=45_000),
    CampaignJob(name="body-b", domain="body", device="tc1797",
                cycles=45_000),
]

CRASH_AT_CHECKPOINT = {
    "seed": 7,
    "rules": [{"site": "worker.crash", "max_faults": 1,
               "match": {"phase": "checkpoint", "attempt": 0}}],
}


def _aggregate_bytes(report):
    with open(report.aggregate_path, "rb") as handle:
        return handle.read()


def test_campaign_chunked_checkpointing_is_identical(tmp_path):
    plain = run_campaign(JOBS, workers=0,
                         campaign_dir=str(tmp_path / "plain"))
    chunked = run_campaign(JOBS, workers=0,
                           campaign_dir=str(tmp_path / "chunked"),
                           checkpoint_every=15_000)
    assert _aggregate_bytes(chunked) == _aggregate_bytes(plain)
    assert chunked.metrics.checkpoint_saves > 0
    assert chunked.metrics.checkpoint_resumes == 0
    # successful jobs clean their checkpoints up
    assert os.listdir(str(tmp_path / "chunked" / "checkpoints")) == []


def test_campaign_crash_resumes_from_checkpoint(tmp_path):
    control = run_campaign(JOBS, workers=0,
                           campaign_dir=str(tmp_path / "control"))
    crashed = run_campaign(JOBS, workers=0,
                           campaign_dir=str(tmp_path / "crashed"),
                           checkpoint_every=15_000,
                           fault_plan=CRASH_AT_CHECKPOINT)
    # every attempt crashed once mid-run and resumed, not restarted:
    # the retry budget was spent in lost cycles, not lost jobs
    assert crashed.metrics.retries == len(JOBS)
    assert crashed.metrics.checkpoint_resumes == len(JOBS)
    assert crashed.metrics.cycles_recovered == 15_000 * len(JOBS)
    assert crashed.metrics.quarantined == 0
    assert _aggregate_bytes(crashed) == _aggregate_bytes(control)


def test_campaign_corrupt_checkpoint_falls_back_to_cycle_zero(tmp_path):
    control = run_campaign(JOBS, workers=0,
                           campaign_dir=str(tmp_path / "control"))
    plan = {
        "seed": 7,
        "rules": [
            {"site": "worker.crash", "max_faults": 1,
             "match": {"phase": "checkpoint", "attempt": 0}},
            # every checkpoint written is damaged, so the retry must
            # reject them all and restart from cycle 0
            {"site": "checkpoint.corrupt"},
        ],
    }
    mangled = run_campaign(JOBS, workers=0,
                           campaign_dir=str(tmp_path / "mangled"),
                           checkpoint_every=15_000, fault_plan=plan)
    assert mangled.metrics.retries == len(JOBS)
    assert mangled.metrics.checkpoint_resumes == 0     # fell back to 0
    assert mangled.metrics.quarantined == 0
    assert _aggregate_bytes(mangled) == _aggregate_bytes(control)


def test_campaign_pool_workers_resume_identically(tmp_path):
    control = run_campaign(JOBS, workers=0,
                           campaign_dir=str(tmp_path / "control"))
    pooled = run_campaign(JOBS, workers=2,
                          campaign_dir=str(tmp_path / "pooled"),
                          checkpoint_every=15_000,
                          fault_plan=CRASH_AT_CHECKPOINT)
    assert pooled.metrics.checkpoint_resumes == len(JOBS)
    assert _aggregate_bytes(pooled) == _aggregate_bytes(control)


def test_checkpoint_every_requires_campaign_dir():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError, match="campaign_dir"):
        run_campaign(JOBS, workers=0, checkpoint_every=1000)
    with pytest.raises(ConfigurationError, match=">= 1"):
        run_campaign(JOBS, workers=0, campaign_dir="/tmp/x",
                     checkpoint_every=0)


def test_checkpoint_files_are_named_by_the_job_digest(tmp_path,
                                                     monkeypatch):
    """A job's name is caller-chosen (a served tenant's spec), so it never
    names a file: checkpoints, their fallbacks and message logs sit flat
    in ``<campaign_dir>/checkpoints/`` under the job's digest, even for a
    name that climbs out of the directory or nests in it.  Discarding is
    stubbed to keep what a STOP or a kill would leave."""
    from repro.fleet import worker
    monkeypatch.setattr(worker, "_discard_checkpoints", lambda path: None)
    jobs = [CampaignJob(name=name, domain="engine", device="tc1797",
                        cycles=4_000) for name in ("a", "../../escaped",
                                                   "x/y")]
    report = run_campaign(jobs, workers=0,
                          campaign_dir=str(tmp_path / "c1"),
                          checkpoint_every=1_000, max_retries=1)
    assert [(r["status"], r["attempts"]) for r in report.records] == \
        [("ok", 1)] * 3
    assert os.listdir(str(tmp_path)) == ["c1"]
    directory = tmp_path / "c1" / "checkpoints"
    names = os.listdir(str(directory))
    assert all((directory / name).is_file() for name in names)
    digests = {job.digest for job in jobs}
    assert {name.split(".", 1)[0] for name in names} == digests
    assert {name.split(".", 1)[1] for name in names} == \
        {"ckpt", "ckpt.prev", "msglog", "msglog.lock"}


def test_job_saves_render_each_logged_message_once(tmp_path, monkeypatch):
    """A save renders only what the job's message log lacks: across a
    multi-save job ``TraceMessage.to_dict`` runs once per message the log
    stores, not once per buffered message per save (which made a job's
    total save cost grow with the square of its length)."""
    from repro.checkpoint import MessageLog
    from repro.fleet import worker
    from repro.mcds.messages import TraceMessage
    monkeypatch.setattr(worker, "_discard_checkpoints", lambda path: None)
    rendered = []
    to_dict = TraceMessage.to_dict

    def counting_to_dict(self):
        rendered.append(self.cycle)
        return to_dict(self)
    monkeypatch.setattr(TraceMessage, "to_dict", counting_to_dict)
    job = JOBS[0].to_dict()
    stats = {}
    execute_job(job, checkpoint={"dir": str(tmp_path), "every": 5_000},
                stats=stats)
    segments = MessageLog(message_log_path(
        checkpoint_path(str(tmp_path), job))).segments()
    assert stats["saves"] == len(segments) == 8
    assert len(rendered) == sum(len(segment["messages"])
                                for segment in segments)


# -- satellite: crash-consistent JSONL result store --------------------------

def _records(n, start=0):
    return [{"job_id": f"job-{i:03d}", "status": "ok",
             "payload": {"value": i}} for i in range(start, start + n)]


def test_store_append_load_roundtrip_with_checksums(tmp_path):
    store = ResultStore(str(tmp_path))
    for record in _records(3):
        store.append(record)
    assert store.load() == _records(3)
    # the on-disk lines carry the checksum; loaded records do not
    with open(store.path) as handle:
        assert all("_crc32" in json.loads(line) for line in handle)


def test_store_skips_torn_tail_without_quarantine(tmp_path):
    """An unterminated last line is indistinguishable from a concurrent
    writer mid-append (the serve-layer tailing contract), so load()
    warns and skips it but must NOT quarantine — the writer may still
    finish that line."""
    store = ResultStore(str(tmp_path))
    for record in _records(2):
        store.append(record)
    with open(store.path, "a") as handle:
        handle.write('{"job_id": "job-9, torn mid-wri')   # SIGKILL artifact
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert store.load() == _records(2)
    assert any("partial tail" in str(w.message) for w in caught)
    assert not os.path.exists(store.quarantine_path)


def test_store_quarantines_terminated_damaged_tail(tmp_path):
    """A newline-terminated damaged last line is real corruption — the
    writer finished it — and is still quarantined."""
    store = ResultStore(str(tmp_path))
    for record in _records(2):
        store.append(record)
    with open(store.path, "a") as handle:
        handle.write('{"job_id": "job-9, torn but terminated\n')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert store.load() == _records(2)
    assert any("damaged record" in str(w.message) for w in caught)
    with open(store.quarantine_path) as handle:
        assert "torn but terminated" in handle.read()


def test_store_recovers_records_after_a_corrupt_middle_line(tmp_path):
    store = ResultStore(str(tmp_path))
    for record in _records(4):
        store.append(record)
    with open(store.path) as handle:
        lines = handle.read().splitlines()
    # flip a payload byte inside line 1: CRC mismatch, not a JSON error
    lines[1], flipped = re.subn(r'("value":\s*)1', r"\g<1>7", lines[1])
    assert flipped == 1
    with open(store.path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = store.load()
    # records before AND after the damaged line survive
    assert loaded == [r for r in _records(4) if r["payload"]["value"] != 1]
    assert any("CRC" in str(w.message) for w in caught)


def test_store_rewrite_is_checksummed_and_loadable(tmp_path):
    store = ResultStore(str(tmp_path))
    store.rewrite(_records(5))
    assert store.load() == _records(5)
    with open(store.path) as handle:
        assert all("_crc32" in json.loads(line) for line in handle)
