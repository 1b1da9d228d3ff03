"""Per-job message log: each trace message a job checkpoints, written once.

A job checkpoint (``fleet/worker.py``) does not keep the EMEM FIFO in its
body.  The FIFO is one contiguous window of the stream of messages the
EMEM ever stored (see :mod:`repro.ed.emem`), so the body keeps only the
window's bounds, as positions in this log, and each save appends the
messages the FIFO took since the previous save as one sealed line — a
*segment* (:func:`repro.durable.seal_record`)::

    {"_crc32":123,"after":5000,"cycle":10000,
     "messages":[{...},...],"start":812}

A segment replaces the log's tail from position ``start`` with its
messages.  Usually ``start`` is where the log ended; a FILL-mode
calibration shrink drops the newest messages, so a later segment starts
below that, and a DAP that drained messages no segment held yet makes
one start above it (no later window reaches below such a start).
``cycle`` is the save that wrote it and ``after`` the save whose log it
extends (0: an empty log).

A body names its save's cycle, so a restore follows the ``after`` links
back from that segment and applies the chain oldest first: it uses only
segments written for that save or earlier, and one per save, whatever a
crashed attempt appended later or twice.  A segment the chain needs that
is missing, torn or damaged raises :class:`CheckpointError`, which
rejects that body like a damaged one.

The log sits next to ``<digest>.ckpt`` as ``<digest>.msglog`` (outside
the ``*.ckpt`` glob), named by the job's content digest.  It is a
:class:`repro.durable.SealedLog`, like the result store, so appends
hold an exclusive lock on its sidecar: a fenced cluster node or an
abandoned pool worker may still be appending to the same log.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, List, NamedTuple

from ..durable import SealedLog
from ..errors import CheckpointError

#: replaces a checkpoint path's ``.ckpt`` extension
LOG_SUFFIX = ".msglog"


def message_log_path(checkpoint_path: str) -> str:
    """The message log that belongs to the checkpoint at ``checkpoint_path``."""
    return os.path.splitext(checkpoint_path)[0] + LOG_SUFFIX


class MessageLog:
    """One job's message log; counts the bytes this object appended."""

    def __init__(self, path: str) -> None:
        self.log = SealedLog(path)
        self.path = path
        self.appended_bytes = 0

    def append(self, cycle: int, after: int, start: int,
               messages: List[Dict]) -> int:
        """Durably append the segment of the save at ``cycle``; returns
        the bytes written."""
        written = self.log.append({"cycle": cycle, "after": after,
                                   "start": start, "messages": messages})
        self.appended_bytes += written
        return written

    def segments(self) -> List[Dict]:
        """Every intact segment, in file order (``[]`` without a log).

        A damaged line is skipped with a warning; so is an unterminated
        final fragment — a torn tail, or an append in flight.
        """
        segments, damaged, _, partial = self.log.read()
        for _, exc in damaged:
            warnings.warn(f"message log {self.path}: skipping a damaged "
                          f"segment ({exc})", RuntimeWarning, stacklevel=2)
        if partial:
            warnings.warn(f"message log {self.path}: ignoring a torn final "
                          f"segment ({len(partial)} bytes)", RuntimeWarning,
                          stacklevel=2)
        return segments

    def window(self, cycle: int, lo: int, hi: int) -> List[Dict]:
        """Positions ``[lo, hi)`` as the save at ``cycle`` left the log.

        Raises :class:`CheckpointError` when a segment the save's chain
        needs is missing or damaged, or the chain does not hold the window.
        """
        latest: Dict[int, Dict] = {}
        for segment in self.segments():          # a later copy wins
            latest[segment["cycle"]] = segment
        chain: List[Dict] = []
        at = cycle
        while at:
            segment = latest.get(at)
            if segment is None:
                raise CheckpointError(
                    f"message log {self.path} has no intact segment for "
                    f"the save at cycle {at}")
            if not 0 <= segment["after"] < at:
                raise CheckpointError(
                    f"message log {self.path}: the segment of cycle {at} "
                    f"extends cycle {segment['after']}")
            chain.append(segment)
            at = segment["after"]
        base, messages = 0, []                   # positions [base, ...)
        for segment in reversed(chain):
            start = segment["start"]
            if base <= start <= base + len(messages):
                del messages[start - base:]
                messages.extend(segment["messages"])
            else:
                # nothing below ``start`` is in any later window
                base, messages = start, list(segment["messages"])
        if not base <= lo <= hi == base + len(messages):
            raise CheckpointError(
                f"message log {self.path} holds positions [{base}, "
                f"{base + len(messages)}) at cycle {cycle}, not the "
                f"window [{lo}, {hi})")
        return messages[lo - base:]


class Window(NamedTuple):
    """How a job checkpoint keeps the EMEM FIFO: positions ``[lo, hi)``
    of a message log, ``hi = start + len(messages)``.

    At a save, ``messages`` are positions ``[start, hi)``: what the log as
    the save at cycle ``after`` left it lacks.
    """

    log: MessageLog
    after: int
    lo: int
    start: int
    messages: List[Dict]
