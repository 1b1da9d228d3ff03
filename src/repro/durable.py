"""Durable files: the one place in the package that writes crash-safely.

Every persistent JSON format — the result store, admission journal and
checkpoint message-log line logs, the cache entries, checkpoints, trace
summary sidecars, and the cluster's lease/fence/manifest/done/final/node
records — goes through the primitives here:

* :func:`canonical_json` — sorted, whitespace-free JSON: the hashing and
  checksum input form;
* :class:`Canonical` — a read-only dict that carries its canonical text,
  rendered once where the value is made and spliced wherever it is
  written again;
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
  record, written in front of that serialisation, so a line is rendered
  once and checked against its own bytes.  A record without it is
  damaged, never "legacy";
* :func:`file_lock` — an exclusive ``flock`` on a sidecar lock file,
  released by the kernel if the holder dies;
* :class:`SealedLog` — the one sealed line log built from the above: a
  locked, fenced, fsynced append, one scanner that tells intact
  records from damaged lines and an unterminated tail, and an atomic
  rewrite.  The result store, the admission journal and every message
  log are one each.

Callers keep their own policy for a damaged record (quarantine, skip,
fall back, rebuild); this module only detects the damage.
"""

from __future__ import annotations

import json
import os
import re
import secrets
import zlib
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

try:                                   # POSIX advisory file locking
    import fcntl
except ImportError:                    # pragma: no cover - non-POSIX host
    fcntl = None

#: the record checksum field; stripped again by :func:`unseal_record`
CRC_FIELD = "_crc32"

#: a :class:`SealedLog`'s :func:`file_lock` sidecar: its path plus this
LOCK_SUFFIX = ".lock"

#: the head of a line :func:`seal_record` writes: the seal, then ``,``
#: and the rest of the body, or the body's closing ``}``
_SEALED_HEAD = re.compile(
    rb'\{"' + CRC_FIELD.encode() + rb'":(0|[1-9][0-9]{0,9})(?:,|(?=\}))')


class Canonical(dict):
    """A read-only dict that carries its own :func:`canonical_json` text.

    The value is rendered once, where it is made; :func:`canonical_json`
    (and so :func:`seal_record`) splices :attr:`text` for a top-level
    member of this type instead of rendering the value again.  Writes
    to the dict are refused, so the text cannot go stale.  It pickles
    with its text, so a pool worker ships the text it rendered.
    """

    __slots__ = ("text",)

    def __init__(self, value: Dict, text: Optional[str] = None) -> None:
        super().__init__(value)
        self.text = canonical_json(value) if text is None else text

    def __reduce__(self):
        return Canonical, (dict(self), self.text)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a Canonical dict is read-only: its text is fixed")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def canonical_json(payload) -> str:
    """Canonical (sorted, whitespace-free) JSON used for hashing.

    A :class:`Canonical` value, and a :class:`Canonical` member of a
    dict with string keys, is spliced as its text, not rendered again.
    """
    if isinstance(payload, Canonical):
        return payload.text
    if isinstance(payload, dict) and any(
            isinstance(value, Canonical) for value in payload.values()):
        return "{" + ",".join(f"{json.dumps(key)}:{canonical_json(value)}"
                              for key, value in sorted(payload.items())) \
            + "}"
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
    """Render ``record`` as one JSON line with its ``_crc32`` seal.

    The canonical body is rendered once and the seal goes in front of
    it: ``{"_crc32":N,`` then the body without its opening brace
    (``{"_crc32":N}`` for an empty body), N being the CRC-32 of the
    body.  Any JSON reader parses the line back to the record plus N.
    """
    body = canonical_json(
        {key: value for key, value in record.items() if key != CRC_FIELD})
    crc = zlib.crc32(body.encode("utf-8"))
    return f'{{"{CRC_FIELD}":{crc}' + ("," if len(body) > 2 else "") \
        + body[1:]


def unseal_record(line: Union[str, bytes]) -> Dict:
    """Parse and verify one sealed record; raises ``ValueError`` if damaged.

    ``line`` may be raw bytes: invalid UTF-8 from a flipped bit is then
    reported as damage (``UnicodeDecodeError`` is a ``ValueError``) like
    any other.
    """
    return unseal_body(line)[0]


def unseal_body(line: Union[str, bytes]) -> Tuple[Dict, Optional[bytes]]:
    """:func:`unseal_record`, plus the canonical body its seal covers.

    A line as :func:`seal_record` writes it is checked against its own
    bytes — the CRC-32 of ``{`` plus everything after the seal, less a
    trailing newline — and parsed once; the body comes back as those
    bytes.  Any other line, such as the spaced form written before the
    seal went in front (``json.dumps(sort_keys=True)``) or a damaged
    one, is parsed and its rest rendered canonically to be checked;
    its body comes back as ``None``.
    """
    data = line.encode("utf-8") if isinstance(line, str) else line
    if data.endswith(b"\n"):
        data = data[:-1]
    head = _SEALED_HEAD.match(data)
    if head is not None:
        body = b"{" + data[head.end():]
        if zlib.crc32(body) == int(head.group(1)):
            return json.loads(body), body
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
    return record, None


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


class SealedLog:
    """A durable log of sealed records, one per line.

    Each format keeps its own policy for what :meth:`read` reports as
    damaged; the log only tells damage apart from an unterminated tail.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.lock_path = path + LOCK_SUFFIX

    def append(self, record: Dict,
               fence: Optional[Callable[[], None]] = None) -> int:
        """Durably append ``record`` as one sealed line; returns the bytes
        written.

        The whole append holds the log's inter-process lock
        (:func:`file_lock` on :attr:`lock_path`), so concurrent writers
        serialize instead of interleaving; callers take the same lock to
        make a read-then-append sequence atomic against other writers.
        The line is fsynced before returning, so the worst a kill can
        leave is one torn final line, which :meth:`read` reports as the
        ``partial`` tail and the next append terminates.

        ``fence`` runs inside the lock, before any byte is written; if
        it raises (``repro.errors.StaleLeaseError`` by convention),
        nothing is appended.  That is how a cluster node that lost its
        lease while paused is kept from committing work that has since
        migrated to another node.
        """
        line = seal_record(record)
        with file_lock(self.lock_path):
            if fence is not None:
                fence()
            append_line(self.path, line)
        return len(line) + 1

    def read(self, offset: int = 0
             ) -> Tuple[List[Dict], List[Tuple[bytes, ValueError]], int,
                        bytes]:
        """Unseal the complete lines at or after byte ``offset``.

        Returns ``(records, damaged, next_offset, partial)``: the intact
        records in file order; each complete line that fails
        :func:`unseal_record`, with its error; the offset just past the
        last complete line; and the unterminated final fragment, which
        is not consumed — an append in flight, or a torn tail from a
        kill.  Blank lines are skipped.  A missing file reads as empty,
        and an ``offset`` whose previous byte is not a newline (past the
        end, mid-record, or a file replaced underneath) reads nothing
        and holds position.
        """
        try:
            with open(self.path, "rb") as handle:
                if offset > 0:
                    handle.seek(offset - 1)
                    if handle.read(1) != b"\n":
                        return [], [], offset, b""
                chunk = handle.read()
        except FileNotFoundError:
            return [], [], offset, b""
        complete, sep, partial = chunk.rpartition(b"\n")
        records: List[Dict] = []
        damaged: List[Tuple[bytes, ValueError]] = []
        for line in complete.split(b"\n") if sep else ():
            if not line.strip():
                continue
            try:
                records.append(unseal_record(line))
            except ValueError as exc:
                damaged.append((line, exc))
        return records, damaged, offset + len(complete) + len(sep), partial

    def rewrite(self, records: Iterable[Dict]) -> None:
        """Atomically replace the log with ``records``, in order.

        The sealed lines are streamed to :func:`atomic_write` one at a
        time, never joined into one string: a store line can hold a
        ~1 MB payload.
        """
        atomic_write(self.path,
                     (seal_record(record) + "\n" for record in records))
