"""SSE framing, replayable event buffers, and campaign events."""

import asyncio
import json
import sys
import threading

from repro.fleet import CampaignSpec
from repro.serve import Campaign, EventBuffer, encode_comment, encode_frame


# -- frame encoding ----------------------------------------------------------
def test_frame_minimal():
    assert encode_frame("hello") == b"data: hello\n\n"


def test_frame_full():
    frame = encode_frame("x", event="job.result", event_id=7,
                         retry_ms=1000)
    assert frame == (b"retry: 1000\n"
                     b"id: 7\n"
                     b"event: job.result\n"
                     b"data: x\n\n")


def test_frame_multiline_data_splits_per_spec():
    frame = encode_frame("line1\nline2\nline3")
    assert frame == b"data: line1\ndata: line2\ndata: line3\n\n"


def test_comment_frame():
    assert encode_comment() == b": keepalive\n\n"
    assert encode_comment("ping") == b": ping\n\n"


# -- event buffer ------------------------------------------------------------
def test_buffer_ids_are_monotonic_from_one():
    buf = EventBuffer()
    assert buf.push("a", "1") == 1
    assert buf.push("b", "2") == 2
    assert buf.last_id == 2


def test_since_replays_after_cursor():
    buf = EventBuffer()
    for i in range(5):
        buf.push("ev", str(i))
    events, closed = buf.since(0)
    assert [e[0] for e in events] == [1, 2, 3, 4, 5]
    assert not closed
    events, _ = buf.since(3)
    assert [(i, d) for i, _, d in events] == [(4, "3"), (5, "4")]
    events, _ = buf.since(99)
    assert events == []


def test_close_is_visible_to_readers():
    buf = EventBuffer()
    buf.push("ev", "x")
    buf.close()
    events, closed = buf.since(0)
    assert closed and len(events) == 1


def test_overflow_drops_and_counts():
    buf = EventBuffer(max_events=2)
    for i in range(5):
        buf.push("ev", str(i))
    assert buf.dropped == 3
    assert buf.last_id == 5               # ids keep advancing
    events, _ = buf.since(0)
    assert [e[0] for e in events] == [1, 2]


def test_wait_returns_immediately_when_data_pending():
    buf = EventBuffer()
    buf.push("ev", "x")

    async def check():
        return await buf.wait(0, timeout=0.01)

    assert asyncio.run(check()) is True


def test_wait_times_out_when_quiet():
    buf = EventBuffer()

    async def check():
        return await buf.wait(0, timeout=0.01)

    assert asyncio.run(check()) is False


def test_wait_woken_by_cross_thread_push():
    buf = EventBuffer()

    async def waiter():
        loop = asyncio.get_running_loop()
        loop.call_later(0.01, lambda: threading.Thread(
            target=buf.push, args=("ev", "x")).start())
        return await buf.wait(0, timeout=5.0)

    assert asyncio.run(waiter()) is True
    assert buf.last_id == 1


def test_wait_woken_by_close():
    buf = EventBuffer()

    async def waiter():
        loop = asyncio.get_running_loop()
        loop.call_later(0.01, buf.close)
        return await buf.wait(0, timeout=5.0)

    assert asyncio.run(waiter()) is True


# -- campaign events ---------------------------------------------------------
def test_campaign_emit_pushes_one_json_line_and_keeps_no_record(tmp_path):
    campaign = Campaign(campaign_id="cmp-test", tenant="t", priority=0,
                        spec=CampaignSpec(), directory=str(tmp_path))
    payload = {"profile": {"ipc": [0.5] * 8}}
    references = sys.getrefcount(payload)
    campaign.emit("job.result", job_id="j1", status="ok", payload=payload)
    campaign.emit("campaign.completed", executed=3)
    assert sys.getrefcount(payload) == references   # no record kept it
    events, _ = campaign.buffer.since(0)
    assert [e[1] for e in events] == ["job.result", "campaign.completed"]
    first, second = (json.loads(e[2]) for e in events)
    assert events[0][2] == json.dumps(first, sort_keys=True)
    assert list(first) == sorted(first)
    assert first == {"run_id": "cmp-test", "seq": 0, "t": first["t"],
                     "event": "job.result", "job_id": "j1",
                     "status": "ok", "payload": payload}
    assert second["seq"] == 1 and second["executed"] == 3
    assert 0 <= first["t"] <= second["t"]
