"""Checkpoint file format: sealed, schema-versioned, atomic.

A checkpoint is one sealed JSON record (:func:`repro.durable.seal_record`),
written on one line with no spaces (shown spread out here)::

    {"_crc32":3735928559,              # over the canonical rest
     "body":{...},                     # tagged-JSON simulation state
     "format":"repro-checkpoint",
     "meta":{...},                     # cycle, kind, job digest, ...
     "schema":3,                       # file-format revision
     "version":"0.1.0"}                # repro package that wrote it

The CRC covers the canonical (sorted, whitespace-free) serialisation of
every other field — the bytes that follow the seal — so any flipped bit,
truncated tail, or hand-edited field is detected before a single value
reaches a component's ``restore_state``.  A checkpoint in the spaced
form earlier releases wrote still reads.  Every rejection raises
:class:`~repro.errors.CheckpointError` — retryable, because the caller's
correct reaction is to fall back to an older checkpoint or to cycle 0.

Writes are crash-safe: the previous file is rotated to ``<path>.prev``,
then the document is written with :func:`repro.durable.atomic_write` —
a kill at any point leaves the last good checkpoint readable, at
``<path>`` or at ``<path>.prev``.  The ``checkpoint.corrupt`` /
``checkpoint.truncated`` fault sites (see :mod:`repro.faults`)
deliberately damage the rendered document *before* it hits the disk,
exercising exactly the rejection path a real torn write would take.

A job checkpoint keeps the EMEM FIFO in the job's message log instead of
its body (:mod:`repro.checkpoint.msglog`): the save appends the log's new
segment before it writes the body, and ``meta["window"]`` names the
FIFO's positions in the log.  :func:`load_latest_checkpoint` rebuilds
that window, so a body whose log segments are missing or damaged falls
back exactly like a damaged body.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional, Tuple, Union

from .. import __version__
from ..durable import atomic_write, seal_record, unseal_record
from ..errors import CheckpointError
from ..obs import runtime as _obs
from .codec import decode_value, encode_value
from .msglog import MessageLog, Window, message_log_path

#: bump on any incompatible change to the checkpoint document layout
SCHEMA_VERSION = 3

MAGIC = "repro-checkpoint"

#: suffix of the rotated previous checkpoint kept as a fallback
PREV_SUFFIX = ".prev"


def render_checkpoint(body: Dict, meta: Optional[Dict] = None) -> str:
    """Serialise ``body`` (+ ``meta``) into the checkpoint document text."""
    return seal_record({"format": MAGIC, "schema": SCHEMA_VERSION,
                        "version": __version__, "meta": dict(meta or {}),
                        "body": encode_value(body)})


def parse_checkpoint(text: Union[str, bytes], source: str = "<memory>"
                     ) -> Tuple[Dict, Dict]:
    """Validate a checkpoint document; returns ``(body, meta)``.

    Raises :class:`CheckpointError` on anything short of a fully intact,
    schema-compatible, checksum-clean document.
    """
    try:
        document = unseal_record(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {source} is not valid JSON (truncated?): {exc}")
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {source} is corrupt: {exc}")
    if document.get("format") != MAGIC:
        raise CheckpointError(
            f"checkpoint {source} is not a {MAGIC} document")
    schema = document.get("schema")
    if schema != SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {source} has schema {schema!r}; this build "
            f"reads schema {SCHEMA_VERSION}")
    if "body" not in document:
        raise CheckpointError(f"checkpoint {source} is missing fields")
    return decode_value(document["body"]), document.get("meta", {})


def _fault_damage(text: str) -> Tuple[str, Optional[str]]:
    """Apply any injected checkpoint corruption; returns (text, site)."""
    from ..faults import injector as _inj
    if _inj._active is None:
        return text, None
    action = _inj.fault_point("checkpoint.corrupt", size=len(text))
    if action is not None:
        # flip a digit inside the CRC-covered region so the checksum
        # catches it; position is deterministic for a given document
        mid = len(text) // 2
        damaged = text[:mid] + ("0" if text[mid] != "0" else "1") \
            + text[mid + 1:]
        return damaged, "checkpoint.corrupt"
    action = _inj.fault_point("checkpoint.truncated", size=len(text))
    if action is not None:
        return text[:len(text) // 2], "checkpoint.truncated"
    return text, None


def save_checkpoint(path: str, body: Dict, meta: Optional[Dict] = None,
                    window: Optional[Window] = None) -> str:
    """Atomically write a checkpoint file; returns the path written.

    The existing file (if any) is rotated to ``<path>.prev`` first, so
    the caller always has one older intact checkpoint to fall back to if
    this one turns out damaged.

    With a ``window`` (job checkpoints, whose ``body`` then lacks the
    EMEM FIFO), the window's new messages are first appended to its log
    as the segment of the save at ``meta["cycle"]``, and
    ``meta["window"]`` records the bounds.  The log must be
    :func:`~repro.checkpoint.msglog.message_log_path` of ``path``, where
    :func:`load_latest_checkpoint` looks for it.
    """
    meta = dict(meta or {})
    if window is not None:
        meta["window"] = [window.lo, window.start + len(window.messages)]
    text = render_checkpoint(body, meta)
    text, damaged_by = _fault_damage(text)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    size = len(text) + 1
    if window is not None:
        size += window.log.append(meta["cycle"], window.after, window.start,
                                  window.messages)
    if os.path.exists(path):
        os.replace(path, path + PREV_SUFFIX)
    atomic_write(path, text + "\n")
    tel = _obs._active
    if tel is not None:
        tel.checkpoint_written(path, size, meta.get("cycle", 0),
                               kind=meta.get("kind", "sim"),
                               damaged=damaged_by)
    return path


def load_checkpoint(path: str) -> Tuple[Dict, Dict]:
    """Read and validate one checkpoint file; returns ``(body, meta)``.

    Raises :class:`CheckpointError` for a missing, truncated, corrupt,
    or schema-incompatible file.  Use :func:`load_latest_checkpoint` to
    get the fallback-to-previous behaviour.
    """
    try:
        with open(path, "rb") as handle:
            text = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
    return parse_checkpoint(text, source=path)


def load_latest_checkpoint(path: str) -> Optional[Tuple[Dict, Dict, str]]:
    """Load ``path``, falling back to ``<path>.prev`` if it is rejected.

    Returns ``(body, meta, used_path)`` or ``None`` when no usable
    checkpoint exists — never raises for corruption: each rejected file
    is reported through telemetry and skipped, which implements the
    "previous checkpoint or cycle 0" fallback contract.

    A job checkpoint's FIFO window is rebuilt from the message log and
    returned as ``body["window"]`` (the messages, oldest first); a
    segment its save needs that is missing or damaged rejects the file.
    """
    tel = _obs._active
    for candidate in (path, path + PREV_SUFFIX):
        if not os.path.exists(candidate):
            continue
        try:
            body, meta = load_checkpoint(candidate)
            if "window" in meta:
                lo, hi = meta["window"]
                body["window"] = MessageLog(message_log_path(path)).window(
                    meta["cycle"], lo, hi)
        except CheckpointError as exc:
            if tel is not None:
                tel.checkpoint_restored("rejected", candidate,
                                        error=str(exc))
            continue
        return body, meta, candidate
    return None


def checkpoint_info(path: str) -> Dict[str, Any]:
    """Summarise one checkpoint file for CLI inspection.

    A job checkpoint keeps the simulator under ``body["sim"]`` and its
    FIFO in the job's message log, whose intact segments and size are
    reported too.
    """
    body, meta = load_checkpoint(path)
    sim = body.get("sim", body) if isinstance(body, dict) else {}
    info = {
        "path": path,
        "schema": SCHEMA_VERSION,
        "meta": meta,
        "components": [entry["name"]
                       for entry in sim.get("components", ())],
        "size_bytes": os.path.getsize(path),
    }
    if "window" in meta:
        main = path[:-len(PREV_SUFFIX)] if path.endswith(PREV_SUFFIX) \
            else path
        log = MessageLog(message_log_path(main))
        info["log"] = {"path": log.path, "segments": len(log.segments()),
                       "bytes": os.path.getsize(log.path)
                       if os.path.exists(log.path) else 0}
    return info
