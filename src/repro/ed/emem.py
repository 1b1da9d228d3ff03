"""Emulation memory (EMEM): shared calibration overlay and trace buffer.

"The EEC consists of the MCDS ... and the Emulation Memory, which is shared
between calibration overlay and trace" (paper Section 3).  The trace share
is a bounded message FIFO with three capture disciplines:

* ``ring`` — wrap, overwriting the oldest messages (free-running capture);
* ``fill`` — stop accepting once full (capture from start);
* trigger-stop — keep ringing until a trigger fires, then store a
  configured post-trigger amount and freeze ("trigger close to the point of
  interest", Section 3).

Every lost message — wrapped away, rejected by a full fill-mode buffer,
dropped for a CRC mismatch, or injected by a fault drill — is accounted as
a :class:`~repro.mcds.messages.Gap`: a side-band record of the lost cycle
span that the profiling layer uses to mark affected windows as degraded.
Gaps never occupy buffer capacity, so the happy path is byte-identical to
a model without the accounting.

The FIFO is always one contiguous window of the stream of messages it
ever took, numbered by position: :meth:`EmulationMemory.store` appends at
the back; ring eviction, a DAP drain and an injected overrun remove from
the front; ``trace.corrupt`` changes a message before it is stored, never
after.  The exceptions are a FILL-mode calibration shrink, which drops
the *newest* messages so that the next ones take their positions again,
and a reset, which starts the stream over.  Job checkpoints rely on
this: :func:`take_fifo` swaps the FIFO in a snapshot for its bounds plus
the messages a job's message log lacks (:mod:`repro.checkpoint.msglog`),
and :func:`put_fifo` puts the window back for a restore.  A job save
takes the same window from the live FIFO with
:meth:`EmulationMemory.log_window`, which renders only those messages.

Fault-injection sites (see :mod:`repro.faults`): ``emem.drop``,
``emem.overflow``, ``trace.corrupt``.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from ..faults import injector as _fi
from ..faults.injector import fault_point
from ..mcds.messages import Gap, TraceMessage
from ..obs import runtime as _obs

RING = "ring"
FILL = "fill"


class EmulationMemory:
    """Bounded trace store plus a calibration-overlay allocation."""

    def __init__(self, total_kb: int, calibration_kb: int = 0,
                 mode: str = RING) -> None:
        if calibration_kb > total_kb:
            raise ConfigurationError("calibration share exceeds EMEM size")
        if mode not in (RING, FILL):
            raise ConfigurationError(f"unknown EMEM mode {mode!r}")
        self.total_kb = total_kb
        self.calibration_kb = calibration_kb
        self.mode = mode
        self.capacity_bits = (total_kb - calibration_kb) * 1024 * 8
        self._fifo: deque = deque()
        self._head = 0             # stream position of the FIFO's oldest
        #: messages the FIFO ever took: a job's message log counts what it
        #: holds by this, so :meth:`reset` (which restarts the positions)
        #: leaves it alone
        self.appended = 0
        self.stored_bits = 0
        self.frozen = False
        self._post_trigger_bits: Optional[int] = None
        self.lost_oldest = 0       # overwritten in ring mode
        self.lost_new = 0          # rejected in fill mode / after freeze
        self.corrupt_dropped = 0   # CRC mismatch at the sink
        self.injected_drops = 0    # fault-drill drops/overruns
        self.total_stored = 0
        self.trigger_cycle: Optional[int] = None
        #: side-band record of every lost span, oldest first
        self.gaps: List[Gap] = []
        self._open_gap: Optional[Gap] = None
        self._fifo_out = False

    # -- calibration share ---------------------------------------------------
    def reserve_calibration(self, kb: int) -> None:
        """Grow the calibration share; shrinks the trace capacity."""
        if kb > self.total_kb:
            raise ConfigurationError("calibration share exceeds EMEM size")
        self.calibration_kb = kb
        self.capacity_bits = (self.total_kb - kb) * 1024 * 8
        self._evict_to_capacity()

    # -- gap accounting ------------------------------------------------------
    def _note_loss(self, cycle: int, kind: str, lost: int = 1) -> None:
        gap = self._open_gap
        if gap is not None and gap.kind == kind:
            gap.end = max(gap.end, cycle)
            gap.lost += lost
        else:
            gap = Gap(cycle, cycle, lost, kind, "emem")
            self.gaps.append(gap)
            self._open_gap = gap
            tel = _obs._active      # instant only on gap open, not growth
            if tel is not None:
                tel.gap_recorded("emem", kind, cycle, lost)

    # -- store path --------------------------------------------------------------
    def store(self, msg: TraceMessage) -> None:
        if self.frozen:
            # the capture closed deliberately (trigger-stop): counted, but
            # not a gap — nothing downstream should look degraded
            self.lost_new += 1
            return
        self.total_stored += 1
        if _fi._active is not None:
            if fault_point("emem.drop", cycle=msg.cycle,
                           kind=msg.kind) is not None:
                self.injected_drops += 1
                self._note_loss(msg.cycle, "injected")
                return
            action = fault_point("trace.corrupt", cycle=msg.cycle,
                                 kind=msg.kind)
            if action is not None:
                msg.extra = dict(msg.extra)
                msg.extra["crc"] = msg.checksum()
                msg.value ^= int(action.params.get("xor", 0x5A))
            action = fault_point("emem.overflow", cycle=msg.cycle)
            if action is not None:
                self._force_overrun(
                    int(action.params.get("messages",
                                          max(1, len(self._fifo) // 2))))
        if msg.extra and "crc" in msg.extra and \
                msg.extra["crc"] != msg.checksum():
            self.corrupt_dropped += 1
            self._note_loss(msg.cycle, "corrupt")
            return
        if self.mode == FILL and \
                self.stored_bits + msg.bits > self.capacity_bits:
            # reject up front instead of the old append-then-pop churn;
            # same outcome, but the drop is now accounted, never silent
            self.lost_new += 1
            self._note_loss(msg.cycle, "reject")
            return
        self._fifo.append(msg)
        self.appended += 1
        self.stored_bits += msg.bits
        if self.stored_bits <= self.capacity_bits or \
                not self._evict_to_capacity():
            self._open_gap = None         # a clean store closes any gap
        if self._post_trigger_bits is not None:
            self._post_trigger_bits -= msg.bits
            if self._post_trigger_bits <= 0:
                self.frozen = True
                self._post_trigger_bits = None

    def _evict_to_capacity(self) -> int:
        """Drain to capacity; returns how many messages were lost doing so."""
        evicted = 0
        while self.stored_bits > self.capacity_bits and self._fifo:
            if self.mode == FILL:
                dropped = self._fifo.pop()      # reject the newest
                self.stored_bits -= dropped.bits
                self.lost_new += 1
                self._note_loss(dropped.cycle, "reject")
            else:
                oldest = self._fifo.popleft()
                self._head += 1
                self.stored_bits -= oldest.bits
                self.lost_oldest += 1
                self._note_loss(oldest.cycle, "wrap")
            evicted += 1
        return evicted

    def _force_overrun(self, messages: int) -> None:
        """Injected overrun: evict the oldest ``messages`` as the hardware
        would on a burst the arbiter could not absorb."""
        for _ in range(messages):
            if not self._fifo:
                break
            oldest = self._fifo.popleft()
            self._head += 1
            self.stored_bits -= oldest.bits
            self.injected_drops += 1
            self._note_loss(oldest.cycle, "injected")

    # -- trigger interaction --------------------------------------------------------
    def trigger_stop(self, cycle: int, post_trigger_fraction: float = 0.5) -> None:
        """Trigger action: freeze after a post-trigger share of the buffer."""
        if self.trigger_cycle is None:
            self.trigger_cycle = cycle
            self._post_trigger_bits = int(
                self.capacity_bits * post_trigger_fraction)

    # -- tool-side access --------------------------------------------------------------
    def pop_front(self, max_bits: int) -> Tuple[List[TraceMessage], int]:
        """Remove up to ``max_bits`` of whole messages from the front (DAP)."""
        popped: List[TraceMessage] = []
        bits = 0
        while self._fifo and bits + self._fifo[0].bits <= max_bits:
            msg = self._fifo.popleft()
            bits += msg.bits
            self.stored_bits -= msg.bits
            popped.append(msg)
        self._head += len(popped)
        return popped, bits

    def contents(self) -> List[TraceMessage]:
        """Snapshot of buffered messages, oldest first (post-mortem upload)."""
        return list(self._fifo)

    def iter_contents(self) -> Iterator[TraceMessage]:
        """The buffered messages, oldest first, without a copy: for a
        reader (the decoder) that is done before the next store."""
        return iter(self._fifo)

    def gap_messages(self) -> List[TraceMessage]:
        """The lost spans as in-stream overflow-style messages."""
        return [gap.to_message() for gap in self.gaps]

    @property
    def dropped_messages(self) -> int:
        """Every message that reached the EMEM but is not in the buffer."""
        return (self.lost_oldest + self.lost_new + self.corrupt_dropped
                + self.injected_drops)

    @property
    def overrun(self) -> bool:
        """Did the buffer ever lose data it was asked to keep?"""
        return bool(self.lost_oldest or self.lost_new or self.corrupt_dropped
                    or self.injected_drops)

    def stats(self) -> Dict:
        """Health snapshot for tooling and degradation reports."""
        return {
            "mode": self.mode,
            "capacity_bits": self.capacity_bits,
            "stored_bits": self.stored_bits,
            "message_count": self.message_count,
            "fill_ratio": self.fill_ratio,
            "total_stored": self.total_stored,
            "dropped_messages": self.dropped_messages,
            "lost_oldest": self.lost_oldest,
            "lost_new": self.lost_new,
            "corrupt_dropped": self.corrupt_dropped,
            "injected_drops": self.injected_drops,
            "overrun": self.overrun,
            "gaps": len(self.gaps),
            "frozen": self.frozen,
        }

    @property
    def message_count(self) -> int:
        return len(self._fifo)

    @property
    def fill_ratio(self) -> float:
        if self.capacity_bits == 0:
            return 1.0
        return self.stored_bits / self.capacity_bits

    def history_cycles(self) -> int:
        """Cycles of execution covered by the buffered messages."""
        if len(self._fifo) < 2:
            return 0
        return self._fifo[-1].cycle - self._fifo[0].cycle

    def reset(self) -> None:
        self._fifo.clear()
        self._head = 0
        self.stored_bits = 0
        self.frozen = False
        self._post_trigger_bits = None
        self.lost_oldest = 0
        self.lost_new = 0
        self.corrupt_dropped = 0
        self.injected_drops = 0
        self.total_stored = 0
        self.trigger_cycle = None
        self.gaps = []
        self._open_gap = None

    # -- checkpoint ----------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Complete state as plain data; inside :meth:`fifo_left_out` the
        FIFO is the one part left out."""
        open_gap = None
        if self._open_gap is not None:
            open_gap = self.gaps.index(self._open_gap)
        state = {
            "head": self._head,
            "appended": self.appended,
            "stored_bits": self.stored_bits,
            "frozen": self.frozen,
            "post_trigger_bits": self._post_trigger_bits,
            "lost_oldest": self.lost_oldest,
            "lost_new": self.lost_new,
            "corrupt_dropped": self.corrupt_dropped,
            "injected_drops": self.injected_drops,
            "total_stored": self.total_stored,
            "trigger_cycle": self.trigger_cycle,
            "gaps": [gap.to_list() for gap in self.gaps],
            "open_gap": open_gap,
            "calibration_kb": self.calibration_kb,
            "capacity_bits": self.capacity_bits,
        }
        if not self._fifo_out:
            state["fifo"] = [msg.to_dict() for msg in self._fifo]
        return state

    @contextmanager
    def fifo_left_out(self) -> Iterator[None]:
        """Job checkpoints: :meth:`snapshot_state` leaves the FIFO out
        within the block, and :meth:`log_window` renders the part of it a
        job's message log lacks."""
        self._fifo_out = True
        try:
            yield
        finally:
            self._fifo_out = False

    def log_window(self, logged: int) -> Tuple[int, int, List[dict]]:
        """:func:`take_fifo` on the live FIFO, rendering only ``entries``,
        so a save's cost does not grow with the FIFO."""
        new = min(self.appended - logged, len(self._fifo))
        start = len(self._fifo) - new
        return (self._head, self._head + start,
                [msg.to_dict() for msg in islice(self._fifo, start, None)])

    def restore_state(self, state: dict) -> None:
        self._fifo = deque(TraceMessage.from_dict(entry)
                           for entry in state["fifo"])
        self._head = state["head"]
        self.appended = state["appended"]
        self.stored_bits = state["stored_bits"]
        self.frozen = state["frozen"]
        self._post_trigger_bits = state["post_trigger_bits"]
        self.lost_oldest = state["lost_oldest"]
        self.lost_new = state["lost_new"]
        self.corrupt_dropped = state["corrupt_dropped"]
        self.injected_drops = state["injected_drops"]
        self.total_stored = state["total_stored"]
        self.trigger_cycle = state["trigger_cycle"]
        self.gaps = [Gap.from_list(entry) for entry in state["gaps"]]
        self._open_gap = None if state["open_gap"] is None \
            else self.gaps[state["open_gap"]]
        self.calibration_kb = state["calibration_kb"]
        self.capacity_bits = state["capacity_bits"]


# -- job message log ----------------------------------------------------------
def take_fifo(state: dict, logged: int) -> Tuple[int, int, List[dict]]:
    """Take the FIFO out of an EMEM ``snapshot_state()`` for a message log.

    ``logged`` is ``appended`` as of the log's last save.  Returns
    ``(lo, start, entries)``: the FIFO is stream positions ``[lo, hi)``,
    and ``entries`` are positions ``[start, hi)``, oldest first — every
    message the FIFO took since that save and still holds (after a FILL
    shrink, some older ones too).  The positions in ``[lo, start)`` hold
    what they held at that save.
    """
    fifo = state.pop("fifo")
    new = min(state["appended"] - logged, len(fifo))
    return (state["head"], state["head"] + len(fifo) - new,
            fifo[len(fifo) - new:])


def put_fifo(state: dict, entries: List[dict]) -> None:
    """Inverse of :func:`take_fifo`: ``entries`` are the whole window."""
    state["fifo"] = entries
