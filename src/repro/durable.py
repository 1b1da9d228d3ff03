"""Durable files: the one place in the package that writes crash-safely.

Every persistent JSON format — the result store and admission journal line
logs, the cache entries, checkpoints, trace summary sidecars, and the
cluster's lease/fence/manifest/plan/batch/done/final/node records — goes
through the five primitives here:

* :func:`canonical_json` — sorted, whitespace-free JSON: the hashing and
  checksum input form;
* :func:`atomic_write` — replace a whole file so that a reader (or a
  machine that lost power) sees the old bytes or the new bytes, never a
  mix: write a unique temp file in the same directory, fsync it, rename
  it over the target, then fsync the directory so the rename itself is
  durable;
* :func:`append_line` — durably append one line to a log (fsynced before
  returning; the directory is fsynced too when the append created the
  file);
* :func:`seal_record` / :func:`unseal_record` — the JSON record seal: a
  ``_crc32`` field over the canonical serialisation of the rest of the
  record.  A record without it is damaged, never "legacy";
* :func:`file_lock` — an exclusive ``flock`` on a sidecar lock file,
  released by the kernel if the holder dies.

Callers keep their own policy for a damaged record (quarantine, skip,
fall back, rebuild); this module only detects the damage.
"""

from __future__ import annotations

import json
import os
import secrets
import zlib
from contextlib import contextmanager
from typing import Dict, Iterable, Union

try:                                   # POSIX advisory file locking
    import fcntl
except ImportError:                    # pragma: no cover - non-POSIX host
    fcntl = None

#: the record checksum field; stripped again by :func:`unseal_record`
CRC_FIELD = "_crc32"


def canonical_json(payload) -> str:
    """Canonical (sorted, whitespace-free) JSON used for hashing."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _fsync_directory(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, text: Union[str, Iterable[str]]) -> None:
    """Durably replace ``path`` with ``text``.

    ``text`` may also be an iterable of strings, written in order, so a
    large log is streamed to disk instead of first being joined in
    memory.  The temp file is unique per call, so concurrent writers of one path
    never share (and tear) a temp file: the last rename wins whole.  A
    failure before the rename removes the temp file and leaves the
    target untouched.  The file gets the mode a plain ``open()`` gives a
    new file (0o666 less the umask), like one :func:`append_line` creates.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"{os.path.basename(path)}."
                                  f"{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if isinstance(text, str):
                handle.write(text)
            else:
                handle.writelines(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_directory(directory)


def append_line(path: str, line: str) -> None:
    """Durably append ``line`` plus a newline to ``path``.

    A file that does not end in a newline holds the torn tail of a writer
    that died mid-append; it is terminated first, so the fragment reads
    as one damaged line and this record as the next one.  Callers hold
    the log's :func:`file_lock`, so no live append can be mistaken for
    such a fragment.
    """
    created = not os.path.exists(path)
    with open(path, "a+b") as handle:
        data = (line + "\n").encode("utf-8")
        if handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                data = b"\n" + data
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if created:
        _fsync_directory(os.path.dirname(os.path.abspath(path)))


def seal_record(record: Dict) -> str:
    """Render ``record`` as one JSON line with its ``_crc32`` seal."""
    body = {key: value for key, value in record.items() if key != CRC_FIELD}
    crc = zlib.crc32(canonical_json(body).encode("utf-8"))
    return json.dumps({**body, CRC_FIELD: crc}, sort_keys=True)


def unseal_record(line: Union[str, bytes]) -> Dict:
    """Parse and verify one sealed record; raises ``ValueError`` if damaged.

    ``line`` may be raw bytes: invalid UTF-8 from a flipped bit is then
    reported as damage (``UnicodeDecodeError`` is a ``ValueError``) like
    any other.
    """
    record = json.loads(line)          # may raise JSONDecodeError
    if not isinstance(record, dict):
        raise ValueError("record is not a JSON object")
    stored = record.pop(CRC_FIELD, None)
    if stored is None:
        raise ValueError(f"record has no {CRC_FIELD} CRC field")
    crc = zlib.crc32(canonical_json(record).encode("utf-8"))
    if crc != stored:
        raise ValueError(
            f"record failed its CRC check (stored {stored}, computed {crc})")
    return record


@contextmanager
def file_lock(path: str):
    """Hold an exclusive advisory lock on the sidecar file ``path``.

    The lock lives in its own file, never in the data file it guards,
    whose :func:`atomic_write` would otherwise swap the inode out from
    under a waiting locker.  Not reentrant: never nest it on one path.
    """
    with open(path, "a") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield                          # closing the file drops the lock
