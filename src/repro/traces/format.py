"""The ``.rtrace`` columnar segment format: layout, packing, CRC guards.

A segment is a single append-only file::

    +--------------------+
    | magic  "RTRC0001"  |  8 bytes
    +--------------------+
    | column block 0     |  struct-packed arrays + compressed args blob
    | column block 1     |
    | ...                |
    +--------------------+
    | footer (JSON)      |  index: string table, per-block metadata, CRCs
    +--------------------+
    | tail               |  16 bytes: <II footer_len footer_crc + magic
    +--------------------+

Each block packs up to ``block_events`` events column-wise in
little-endian order — timestamps (f8), durations (f8), then the interned
``name``/``cat``/``job`` ids and the ``pid``/``tid`` lanes (u4 each) and
the phase code (u1) — followed by a zlib-compressed canonical-JSON list
of the events' ``args`` dicts.  The footer records, per block, the byte
offset/length, event count, timestamp range, the set of name and job ids
present, and a CRC32 over the raw block bytes; readers can therefore
*prune* blocks on a time-window/name/job predicate and verify everything
they do read.  The footer itself is CRC-guarded by the fixed-size tail,
which is what makes the index reachable with two seeks from the end of a
multi-gigabyte file.

No pickle anywhere — same rule as the checkpoint and journal formats.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from ..durable import canonical_json
from ..errors import TraceStoreError

MAGIC = b"RTRC0001"
TAIL_STRUCT = struct.Struct("<II")          # footer_len, footer_crc32
TAIL_SIZE = TAIL_STRUCT.size + len(MAGIC)

FORMAT_NAME = "repro-trace-segment"
SCHEMA_VERSION = 1

#: default events per column block — small enough that a narrow
#: time-window query touches a few percent of a large file, large enough
#: to amortize the struct/zlib cost per event
DEFAULT_BLOCK_EVENTS = 4096

#: phase codes (Chrome trace-event ``ph`` values the store models)
PH_COMPLETE = 0      # "X": a finished span with a duration
PH_INSTANT = 1       # "i": a point on the timeline
PH_CODES = {"X": PH_COMPLETE, "i": PH_INSTANT}
PH_CHARS = {code: char for char, code in PH_CODES.items()}


class StringTable:
    """Append-only intern table; id 0 is always the empty string."""

    def __init__(self, strings: Optional[Sequence[str]] = None) -> None:
        self.strings: List[str] = list(strings) if strings else [""]
        if self.strings[0] != "":
            raise TraceStoreError("string table id 0 must be ''")
        self._ids: Dict[str, int] = {
            value: idx for idx, value in enumerate(self.strings)}

    def intern(self, value: str) -> int:
        idx = self._ids.get(value)
        if idx is None:
            idx = len(self.strings)
            self.strings.append(value)
            self._ids[value] = idx
        return idx

    def __getitem__(self, idx: int) -> str:
        try:
            return self.strings[idx]
        except IndexError:
            raise TraceStoreError(f"string id {idx} outside table "
                                  f"({len(self.strings)} entries)")

    def __len__(self) -> int:
        return len(self.strings)


def pack_block(rows: Sequence[Tuple]) -> Tuple[bytes, Dict]:
    """Pack event rows into one column block; returns (bytes, index entry).

    Each row is ``(ts, dur, name_id, cat_id, job_id, pid, tid, ph, args)``
    with ``args`` a JSON-safe dict or ``None``.  The returned index entry
    carries everything the footer needs except the block's byte offset.
    """
    if not rows:
        raise TraceStoreError("cannot pack an empty block")
    n = len(rows)
    cols = list(zip(*rows))
    body = b"".join((
        struct.pack(f"<{n}d", *cols[0]),           # ts_us
        struct.pack(f"<{n}d", *cols[1]),           # dur_us
        struct.pack(f"<{n}I", *cols[2]),           # name ids
        struct.pack(f"<{n}I", *cols[3]),           # cat ids
        struct.pack(f"<{n}I", *cols[4]),           # job ids
        struct.pack(f"<{n}I", *cols[5]),           # pids
        struct.pack(f"<{n}I", *cols[6]),           # tids
        struct.pack(f"<{n}B", *cols[7]),           # phase codes
        zlib.compress(canonical_json(list(cols[8])).encode("utf-8")),
    ))
    entry = {
        "count": n,
        "length": len(body),
        "crc32": zlib.crc32(body) & 0xFFFFFFFF,
        "ts_min": min(cols[0]),
        "ts_max": max(cols[0]),
        "names": sorted(set(cols[2])),
        "jobs": sorted({jid for jid in cols[4] if jid}),
    }
    return body, entry


def unpack_block(data: bytes, entry: Dict,
                 want_args: bool = True) -> List[Tuple]:
    """Inverse of :func:`pack_block`; verifies the block CRC first."""
    if len(data) != entry["length"]:
        raise TraceStoreError(
            f"block truncated: expected {entry['length']} bytes, "
            f"got {len(data)}")
    if (zlib.crc32(data) & 0xFFFFFFFF) != entry["crc32"]:
        raise TraceStoreError("block CRC mismatch: segment is damaged")
    n = entry["count"]
    offset = 0
    columns = []
    for fmt, width in (("d", 8), ("d", 8), ("I", 4), ("I", 4), ("I", 4),
                       ("I", 4), ("I", 4), ("B", 1)):
        columns.append(struct.unpack_from(f"<{n}{fmt}", data, offset))
        offset += n * width
    if want_args:
        try:
            args_list = json.loads(zlib.decompress(data[offset:]))
        except (zlib.error, ValueError) as exc:
            raise TraceStoreError(f"block args blob unreadable: {exc}")
        if len(args_list) != n:
            raise TraceStoreError(
                f"block args blob has {len(args_list)} entries "
                f"for {n} events")
    else:
        args_list = [None] * n
    return list(zip(*columns, args_list))


def render_footer(footer: Dict) -> bytes:
    """Footer JSON plus the CRC-guarded fixed-size tail."""
    body = canonical_json(footer).encode("utf-8")
    tail = TAIL_STRUCT.pack(len(body), zlib.crc32(body) & 0xFFFFFFFF)
    return body + tail + MAGIC


def read_footer(handle, file_size: int) -> Tuple[Dict, int]:
    """Load and validate the footer; returns (footer, bytes_read).

    ``handle`` must be an open binary file.  Raises
    :class:`TraceStoreError` on any structural damage — a segment whose
    writer never closed (no tail), a garbled tail, or a footer whose CRC
    does not match.
    """
    if file_size < len(MAGIC) + TAIL_SIZE:
        raise TraceStoreError(
            f"file too small to be a trace segment ({file_size} bytes)")
    handle.seek(0)
    if handle.read(len(MAGIC)) != MAGIC:
        raise TraceStoreError("bad magic: not a repro trace segment")
    handle.seek(file_size - TAIL_SIZE)
    tail = handle.read(TAIL_SIZE)
    if tail[TAIL_STRUCT.size:] != MAGIC:
        raise TraceStoreError(
            "no footer tail: the segment writer never closed this file")
    footer_len, footer_crc = TAIL_STRUCT.unpack(tail[:TAIL_STRUCT.size])
    footer_at = file_size - TAIL_SIZE - footer_len
    if footer_at < len(MAGIC):
        raise TraceStoreError("footer length exceeds file size")
    handle.seek(footer_at)
    body = handle.read(footer_len)
    if (zlib.crc32(body) & 0xFFFFFFFF) != footer_crc:
        raise TraceStoreError("footer CRC mismatch: segment is damaged")
    try:
        footer = json.loads(body.decode("utf-8"))
    except ValueError as exc:
        raise TraceStoreError(f"footer is not valid JSON: {exc}")
    if footer.get("format") != FORMAT_NAME:
        raise TraceStoreError(
            f"unexpected footer format {footer.get('format')!r}")
    if footer.get("schema") != SCHEMA_VERSION:
        raise TraceStoreError(
            f"unsupported segment schema {footer.get('schema')!r} "
            f"(this build reads schema {SCHEMA_VERSION})")
    return footer, len(MAGIC) + TAIL_SIZE + footer_len
