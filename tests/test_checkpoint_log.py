"""Job checkpoints keep the EMEM FIFO in a per-job message log.

Each save appends the messages the FIFO took since the previous save to
``<job_id>.msglog`` as one sealed segment, and the body names the FIFO's
window in that log (docs/checkpoint.md).  Every resume case here
compares its payload with an uninterrupted run's: a retry that appended
a segment twice, a damaged newest body whose ``.prev`` names a shorter
log prefix, a deleted or bit-flipped log (cycle 0), a FILL-mode
calibration shrink that rewrites the log's tail, a streaming DAP that
drains messages no segment holds yet, and E7's wrapping 16 KB ring and
trigger-stop freeze.  The first test asserts the property the log rests
on: the FIFO is one contiguous window of the stored-message stream.
"""

import os
import sys
import threading
import warnings

import pytest

from repro.checkpoint import CheckpointError, MessageLog, message_log_path
from repro.checkpoint import format as checkpoint_format
from repro.core.profiling import ProfilingSession, spec as pspec
from repro.core.profiling.export import result_to_dict
from repro.durable import canonical_json
from repro.ed.emem import FILL, take_fifo
from repro.errors import CampaignStopped
from repro.faults import FaultInjector, FaultPlan
from repro.fleet import run_campaign, worker
from repro.fleet.spec import CampaignJob
from repro.mcds.counters import CYCLES as CYCLE_BASIS
from repro.mcds.trigger import RateThreshold, Trigger
from repro.obs import telemetry
from repro.soc.config import tc1797_config
from repro.workloads.engine import EngineControlScenario

EVERY = 5_000
CYCLES = 30_000
JOB = CampaignJob(name="engine-a", domain="engine", device="tc1797",
                  cycles=CYCLES).to_dict()

#: E7's capture: a 16 KB EMEM, a cycle-accurate program trace, and an
#: anomaly burst early enough for its IPC dip to trigger within the run
E7_PARAMS = {"anomaly": True, "anomaly_period": 15_000, "anomaly_len": 400}


def _device(overrides=None, params=None, seed=2008, program_trace=False,
            trigger_stop=False, shrink_at=None):
    """A profiled engine device with the given EMEM/DAP set-up."""
    device = EngineControlScenario(ed_config_overrides=overrides or {}) \
        .build(tc1797_config(), params or {}, seed=seed)
    session = ProfilingSession(
        device, pspec.engine_parameter_set(ipc_resolution=256, rate_per=100))
    if program_trace:
        device.mcds.add_program_trace(cycle_accurate=True)
    if trigger_stop:
        ipc = device.mcds.add_rate_counter(
            "ipc.trigger", ["tc.instr_executed"], 256, basis=CYCLE_BASIS)
        device.mcds.add_trigger(Trigger(
            "anomaly_seen", RateThreshold(ipc, 128),
            on_enter=lambda cycle: device.emem.trigger_stop(cycle, 0.5)))
    if shrink_at is not None:
        run = device.run

        def run_with_shrink(cycles):
            # the calibration share grows at a chunk boundary, so the
            # chunked control run and the checkpointed runs agree on it
            if device.cycle == shrink_at:
                device.reserve_calibration(device.emem.total_kb - 1)
            run(cycles)
        device.run = run_with_shrink
    device.soc._ensure_order()
    return device, session


def _profile(session):
    return canonical_json(result_to_dict(session.result()))


def _stop_after(saves):
    """``should_stop`` that stops at the ``saves``-th checkpoint."""
    seen = []

    def should_stop():
        seen.append(None)
        return "preempted" if len(seen) == saves else None
    return should_stop


def _checkpoint(tmp_path):
    return {"dir": str(tmp_path / "checkpoints"), "every": EVERY}


def _log(checkpoint):
    return MessageLog(message_log_path(
        worker.checkpoint_path(checkpoint["dir"], JOB)))


def _joins(segments):
    """How each segment meets the log its predecessor left: ``"rewrite"``
    (starts below its end), ``"hole"`` (above it) or ``"append"``."""
    joins = []
    for before, segment in zip(segments, segments[1:]):
        end = before["start"] + len(before["messages"])
        joins.append("rewrite" if segment["start"] < end else
                     "hole" if segment["start"] > end else "append")
    return joins


#: the join each capture must show in its log
JOINS = {"fill-shrink": "rewrite", "streaming-drain": "hole",
         "emem-reset": "rewrite"}


# -- the property the log rests on -------------------------------------------

CAPTURES = {
    "ring-wrap": dict(overrides={"emem_kb": 16}, params=E7_PARAMS, seed=7,
                      program_trace=True),
    "trigger-stop": dict(overrides={"emem_kb": 16}, params=E7_PARAMS, seed=7,
                         program_trace=True, trigger_stop=True),
    "fill-shrink": dict(overrides={"emem_kb": 8, "emem_mode": FILL,
                                   "dap_streaming": True,
                                   "dap_bandwidth_mbps": 4.0},
                        shrink_at=10_000),
    "streaming-drain": dict(overrides={"dap_streaming": True,
                                       "dap_bandwidth_mbps": 400.0}),
    "injected-loss": dict(overrides={"emem_kb": 16}),
    "emem-reset": dict(),
}

#: the capture whose EMEM is reset mid-run, and when
RESET_AT = 10_000

INJECTED_LOSS = FaultPlan(seed=3, rules=(
    {"site": "emem.overflow", "probability": 0.002,
     "params": {"messages": 40}},
    {"site": "emem.drop", "probability": 0.01},
    {"site": "trace.corrupt", "probability": 0.01}))


@pytest.mark.parametrize("capture", sorted(CAPTURES))
def test_fifo_is_one_window_of_the_stored_stream(tmp_path, capture):
    """An independent model numbers each message the FIFO takes by its
    position (the FIFO's end at the time) and keeps it as first stored.
    At every step the FIFO must be exactly positions ``[head, end)`` of
    that model, unchanged since stored, and the log built from
    :func:`take_fifo` segments must rebuild the same window."""
    device, _ = _device(**CAPTURES[capture])
    emem = device.emem
    stream = {}
    store = emem.store

    def recording_store(msg):
        appended = emem.appended
        store(msg)
        if emem.appended != appended:
            # the message went in at the back; a ring eviction in the
            # same call only moved the head
            stream[emem._head + emem.message_count - 1] = msg.to_dict()
    device.mcds.sink = emem.store = recording_store

    log = MessageLog(str(tmp_path / "job.msglog"))
    logged = after = 0
    plan = INJECTED_LOSS if capture == "injected-loss" else FaultPlan()
    with FaultInjector(plan, scope="window"):
        while device.cycle < CYCLES:
            if capture == "emem-reset" and device.cycle == RESET_AT:
                emem.reset()               # the stream starts over at 0
            device.run(1_000)
            state = emem.snapshot_state()
            fifo = state["fifo"]
            assert fifo == [stream[position] for position in
                            range(state["head"], state["head"] + len(fifo))]
            lo, start, messages = take_fifo(state, logged)
            log.append(device.cycle, after, start, messages)
            assert log.window(device.cycle, lo, start + len(messages)) == fifo
            logged, after = emem.appended, device.cycle
    # a shrink drops the newest messages, so a segment rewrites the tail;
    # a fast drain takes messages before any segment holds them
    if capture in JOINS:
        assert JOINS[capture] in _joins(log.segments())
    if capture == "ring-wrap":
        assert emem.lost_oldest > 0


def _message(cycle):
    return {"kind": "rate", "cycle": cycle, "bits": 25, "source": "ipc",
            "value": cycle % 256, "address": None, "extra": {}}


def test_window_follows_the_chain_its_save_names(tmp_path):
    log = MessageLog(str(tmp_path / "j.msglog"))
    log.append(5, 0, 0, [_message(1), _message(2), _message(3)])
    log.append(9, 5, 2, [_message(4)])           # rewrites position 2
    log.append(12, 9, 6, [_message(6)])          # after a drain: a hole
    log.append(9, 7, 0, [_message(0)])           # another lineage's 9
    log.append(15, 12, 7, [_message(7)])         # no segment for save 7
    assert log.window(5, 1, 3) == [_message(2), _message(3)]
    # the later copy of save 9 extends a save the log does not hold
    with pytest.raises(CheckpointError, match="cycle 7"):
        log.window(9, 0, 3)
    log.append(9, 5, 2, [_message(4)])           # a retry's copy wins again
    assert log.window(9, 0, 3) == [_message(1), _message(2), _message(4)]
    assert log.window(12, 6, 7) == [_message(6)]
    assert log.window(15, 6, 8) == [_message(6), _message(7)]
    for lo, hi in ((2, 7), (6, 9), (7, 6)):      # outside what it holds
        with pytest.raises(CheckpointError, match="window"):
            log.window(15, lo, hi)
    with pytest.raises(CheckpointError, match="cycle 20"):
        log.window(20, 0, 0)                     # a save never logged


def test_concurrent_appenders_leave_every_segment_whole(tmp_path):
    """More appenders than cores (a fenced node and its successor, say)
    sharing one log: every segment survives intact and none is lost."""
    log_path = str(tmp_path / "j.msglog")
    writers, rounds = 4, 25
    barrier = threading.Barrier(writers)
    errors = []

    def append(writer):
        log = MessageLog(log_path)
        try:
            barrier.wait(timeout=10)
            for round_ in range(rounds):
                log.append(1 + round_, 0, writer,
                           [_message(writer * 1000 + i) for i in range(50)])
        except Exception as exc:              # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=append, args=(writer,))
                   for writer in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # no damaged or torn segment
        segments = MessageLog(log_path).segments()
    assert sorted((s["start"], s["cycle"]) for s in segments) == \
        [(writer, 1 + round_) for writer in range(writers)
         for round_ in range(rounds)]
    for segment in segments:
        writer = segment["start"]
        assert segment["messages"] == \
            [_message(writer * 1000 + i) for i in range(50)]


# -- resuming from the log is byte-identical ---------------------------------

def _control(**setup):
    """The uninterrupted run, in the checkpoint loop's chunks."""
    device, session = _device(**setup)
    while device.cycle < CYCLES:
        device.run(min(EVERY, CYCLES - device.cycle))
    return _profile(session)


def _resume(tmp_path, stop_at, **setup):
    """Stop the worker's checkpoint loop at save ``stop_at``, then resume
    on a fresh device; returns (payload, resume stats, log segments)."""
    checkpoint = _checkpoint(tmp_path)
    device, _ = _device(**setup)
    with pytest.raises(CampaignStopped):
        worker._run_checkpointed(JOB, device, checkpoint, {},
                                 should_stop=_stop_after(stop_at))
    segments = _log(checkpoint).segments()
    device, session = _device(**setup)
    stats = {}
    worker._run_checkpointed(JOB, device, checkpoint, stats)
    return _profile(session), stats, segments


@pytest.mark.parametrize("capture, stop_at", [
    ("fill-shrink", 3),          # shrink at 10k: the 15k segment rewrites
    ("streaming-drain", 3),
    ("ring-wrap", 4),            # E7's 16 KB ring wraps from ~12k on
    ("trigger-stop", 2),         # fired at ~5k, freezes after the resume
    ("trigger-stop", 4),         # resumed frozen: segments stay empty
])
def test_resume_from_the_log_is_byte_identical(tmp_path, capture, stop_at):
    setup = CAPTURES[capture]
    payload, stats, segments = _resume(tmp_path, stop_at, **setup)
    assert stats["resumed_from_cycle"] == stop_at * EVERY
    assert [s["cycle"] for s in segments] == \
        [EVERY * k for k in range(1, stop_at + 1)]
    if capture in JOINS:
        assert JOINS[capture] in _joins(segments)
    assert payload == _control(**setup)
    assert not os.listdir(str(tmp_path / "checkpoints"))


def _execute(checkpoint, **kwargs):
    stats = {}
    payload = worker.execute_job(JOB, checkpoint=checkpoint, stats=stats,
                                 **kwargs)
    return canonical_json(payload), stats


def _interrupt(checkpoint, saves):
    with pytest.raises(CampaignStopped):
        worker.execute_job(JOB, checkpoint=checkpoint,
                           should_stop=_stop_after(saves))


@pytest.fixture(scope="module")
def uninterrupted():
    return canonical_json(worker.execute_job(JOB))


def test_retry_after_a_crash_before_the_body_rename_appends_again(
        tmp_path, monkeypatch, uninterrupted):
    checkpoint = _checkpoint(tmp_path)
    rename = checkpoint_format.atomic_write
    writes = []

    def die_at_the_third(path, text):
        writes.append(path)
        if len(writes) == 3:
            raise OSError("killed between the segment and the body")
        rename(path, text)
    monkeypatch.setattr(checkpoint_format, "atomic_write", die_at_the_third)
    with pytest.raises(OSError, match="killed"):
        worker.execute_job(JOB, checkpoint=checkpoint)
    monkeypatch.undo()
    log = _log(checkpoint)
    assert [s["cycle"] for s in log.segments()] == [5_000, 10_000, 15_000]

    # the retry resumes from the 10k body and writes the 15k save again
    with pytest.raises(CampaignStopped):
        worker.execute_job(JOB, checkpoint=checkpoint,
                           should_stop=_stop_after(1))
    segments = log.segments()
    assert [s["cycle"] for s in segments] == \
        [5_000, 10_000, 15_000, 15_000]
    assert segments[2] == segments[3]

    payload, stats = _execute(checkpoint)
    assert stats["resumed_from_cycle"] == 15_000
    assert payload == uninterrupted


def test_damaged_newest_body_falls_back_to_a_shorter_log_prefix(
        tmp_path, uninterrupted):
    checkpoint = _checkpoint(tmp_path)
    _interrupt(checkpoint, 4)
    path = worker.checkpoint_path(checkpoint["dir"], JOB)
    with open(path, "r+b") as handle:
        data = handle.read()
        handle.seek(len(data) // 2)
        handle.write(bytes([data[len(data) // 2] ^ 0x01]))
    # the log holds the 20k segment .prev does not name
    assert _log(checkpoint).segments()[-1]["cycle"] == 20_000
    payload, stats = _execute(checkpoint)
    assert stats["resumed_from_cycle"] == 15_000
    assert payload == uninterrupted


def _flip_first_segment(log):
    with open(log.path, "r+b") as handle:
        first = handle.readline()
        handle.seek(len(first) // 2)
        handle.write(bytes([first[len(first) // 2] ^ 0x10]))


@pytest.mark.parametrize("damage", ["deleted", "bit-flip"])
def test_a_lost_segment_falls_back_to_cycle_zero(tmp_path, damage,
                                                  uninterrupted):
    checkpoint = _checkpoint(tmp_path)
    _interrupt(checkpoint, 3)
    log = _log(checkpoint)
    if damage == "deleted":
        os.unlink(log.path)
    else:
        _flip_first_segment(log)        # both bodies need it
    payload, stats = _execute(checkpoint)
    assert stats["resumed_from_cycle"] == 0
    assert payload == uninterrupted


def test_stats_count_body_and_segment_bytes(tmp_path):
    checkpoint = _checkpoint(tmp_path)
    stats = {}
    with pytest.raises(CampaignStopped):
        worker.execute_job(JOB, checkpoint=checkpoint, stats=stats,
                           should_stop=_stop_after(2))
    path = worker.checkpoint_path(checkpoint["dir"], JOB)
    assert stats["saves"] == 2
    # two bodies (the newest and its .prev) plus two segments
    assert stats["bytes"] == (os.path.getsize(path)
                              + os.path.getsize(path + ".prev")
                              + os.path.getsize(_log(checkpoint).path))


def test_campaign_metrics_and_telemetry_count_segment_bytes(tmp_path):
    with telemetry(run_id="msglog") as tel:
        report = run_campaign([CampaignJob.from_dict(JOB)], workers=0,
                              campaign_dir=str(tmp_path / "campaign"),
                              checkpoint_every=EVERY)
        written = tel.registry.get("repro_checkpoint_bytes_total") \
            .labels().value
    assert report.metrics.checkpoint_saves == CYCLES // EVERY - 1
    assert report.metrics.checkpoint_bytes == written > 0
    assert f"({int(written):,} bytes)" in report.metrics.summary_table()
