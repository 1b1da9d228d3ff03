"""repro.checkpoint — deterministic snapshot/restore of a live simulation.

The paper's measurements cannot be repeated on the real target; the
reproduction's answer is that they never need to be repeated here either:
a :meth:`Simulator.checkpoint` file captures *all* simulation state —
every component, every RNG stream, the event-hub oracle — such that
restoring it into a freshly built device and running on is byte-identical
to a run that was never interrupted (see docs/checkpoint.md).

Public surface:

* :func:`save_checkpoint` / :func:`load_checkpoint` — CRC-guarded,
  schema-versioned, atomically written files;
* :func:`load_latest_checkpoint` — the fallback-to-previous loader fleet
  workers use;
* :class:`MessageLog` / :class:`Window` — the per-job message log that
  holds the EMEM FIFO of fleet worker checkpoints (``msglog.py``);
* :class:`~repro.errors.CheckpointError` — the (retryable) rejection.
"""

from ..errors import CheckpointError
from .codec import decode_value, encode_value
from .format import (MAGIC, PREV_SUFFIX, SCHEMA_VERSION, checkpoint_info,
                     load_checkpoint, load_latest_checkpoint,
                     parse_checkpoint, render_checkpoint, save_checkpoint)
from .msglog import MessageLog, Window, message_log_path

__all__ = [
    "CheckpointError",
    "MAGIC",
    "MessageLog",
    "PREV_SUFFIX",
    "SCHEMA_VERSION",
    "Window",
    "checkpoint_info",
    "decode_value",
    "encode_value",
    "load_checkpoint",
    "load_latest_checkpoint",
    "message_log_path",
    "parse_checkpoint",
    "render_checkpoint",
    "save_checkpoint",
]
