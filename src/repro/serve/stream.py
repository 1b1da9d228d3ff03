"""Server-Sent Events plumbing: frames and replayable buffers.

Results stream out *while the campaign is still running* — the
fast-trace-generation insight (PAPERS.md) applied to the fleet: don't
make the architect wait for the batch to finish to see the first
customer's profile.  Two pieces:

* :func:`encode_frame` — the SSE wire format (``id:``/``event:``/
  ``data:`` lines, blank-line terminator, multiline data split per spec);
* :class:`EventBuffer` — a per-campaign, replayable event history with
  monotonically increasing ids.  A client reconnecting with
  ``Last-Event-ID: N`` replays everything after ``N`` — eviction,
  reconnects, and slow consumers all reduce to "replay from id".
  ``repro.serve.service.Campaign.emit`` pushes each event record into
  it as one JSON line, under its event name.

Pushes may come from worker threads (the campaign executes in an
executor); waiters live on the asyncio loop.  ``EventBuffer`` is locked
for pushers and wakes async waiters with ``loop.call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import threading
from typing import List, Optional, Tuple

#: (id, event name, data payload) — data is one JSON document per event
BufferedEvent = Tuple[int, str, str]


def encode_frame(data: str, event: Optional[str] = None,
                 event_id: Optional[int] = None,
                 retry_ms: Optional[int] = None) -> bytes:
    """Render one SSE frame.

    Multiline ``data`` becomes one ``data:`` line per source line (the
    browser EventSource API joins them back with newlines); the frame
    ends with the mandatory blank line.
    """
    lines: List[str] = []
    if retry_ms is not None:
        lines.append(f"retry: {int(retry_ms)}")
    if event_id is not None:
        lines.append(f"id: {int(event_id)}")
    if event:
        lines.append(f"event: {event}")
    for part in data.split("\n"):
        lines.append(f"data: {part}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def encode_comment(text: str = "keepalive") -> bytes:
    """An SSE comment frame — ignored by clients, keeps proxies awake."""
    return f": {text}\n\n".encode("utf-8")


class EventBuffer:
    """Thread-safe, replayable event history for one campaign stream.

    Ids start at 1 and never repeat, so ``since(last_id)`` is an exact
    reconnect contract.  ``close()`` marks the stream complete: readers
    drain whatever remains and stop instead of waiting forever.
    """

    def __init__(self, max_events: int = 100_000) -> None:
        self._events: List[BufferedEvent] = []
        self._next_id = 1
        self._closed = False
        self.dropped = 0
        self.max_events = max_events
        self._lock = threading.Lock()
        self._waiters: List[Tuple[asyncio.AbstractEventLoop,
                                  asyncio.Event]] = []

    # -- producer side (any thread) ------------------------------------------
    def push(self, event: str, data: str) -> int:
        """Append one event; returns its id.  Wakes every async waiter."""
        with self._lock:
            event_id = self._next_id
            self._next_id += 1
            if len(self._events) < self.max_events:
                self._events.append((event_id, event, data))
            else:
                self.dropped += 1
            waiters, self._waiters = self._waiters, []
        self._wake(waiters)
        return event_id

    def close(self) -> None:
        with self._lock:
            self._closed = True
            waiters, self._waiters = self._waiters, []
        self._wake(waiters)

    @staticmethod
    def _wake(waiters) -> None:
        for loop, flag in waiters:
            try:
                loop.call_soon_threadsafe(flag.set)
            except RuntimeError:
                pass               # loop already closed — nothing to wake

    # -- consumer side (asyncio loop, or sync tests) -------------------------
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def last_id(self) -> int:
        with self._lock:
            return self._next_id - 1

    def since(self, last_id: int) -> Tuple[List[BufferedEvent], bool]:
        """Events with id > ``last_id``, plus the closed flag."""
        with self._lock:
            events = [e for e in self._events if e[0] > last_id]
            return events, self._closed

    async def wait(self, after_id: int, timeout: Optional[float] = None
                   ) -> bool:
        """Wait until an event with id > ``after_id`` exists or the
        buffer closes; True if there is something new to read, False on
        timeout (callers send a keepalive and wait again)."""
        with self._lock:
            if self._next_id - 1 > after_id or self._closed:
                return True
            flag = asyncio.Event()
            self._waiters.append((asyncio.get_running_loop(), flag))
        try:
            await asyncio.wait_for(flag.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            with self._lock:
                try:
                    self._waiters.remove(
                        next(w for w in self._waiters if w[1] is flag))
                except StopIteration:
                    pass
            return False

