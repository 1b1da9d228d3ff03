"""JSONL campaign result store — crash-consistent by construction.

One line per completed job record, appended as jobs finish so a killed
campaign leaves a valid prefix behind — that prefix is exactly what
``--resume`` replays.  Appends are durable (flushed and fsynced before
``append`` returns) and every line carries a ``_crc32`` field computed
over the canonical serialisation of the rest of the record, so a torn
tail from a SIGKILL *and* a bit-flipped line from a bad disk are both
detected on load.  Damaged lines are quarantined to
``campaign.jsonl.quarantine`` with a warning — never silently dropped,
and never allowed to raise: every intact record after a damaged one is
still recovered.

The store is safe to *tail while a writer appends*: :meth:`ResultStore.
tail` consumes only newline-terminated lines, so a reader polling a live
campaign (the ``repro.serve`` result stream) never misreads an append in
flight as damage — it just picks the record up on its next poll.

Each record is written once: the file keeps completion order, and
nothing rewrites it once a run has started.  A run replaces it
atomically before its first job — with the records it resumes under
``--resume``, else with nothing — so a kill leaves the old store or the
new one.  Readers that need job order sort for themselves.  At campaign
end the orchestrator writes the separate ``aggregate.json`` artifact,
sorted by job id and holding only the deterministic fields (no
wall-clock, no attempt counts), which is the thing asserted
byte-identical across worker counts — and across crash/resume cycles
(see docs/checkpoint.md).

A ``STOP`` file in the campaign directory (:func:`request_stop`) asks
every executor of the campaign — the in-process runner, its pool
workers and cluster nodes — to stop at its next safe boundary; once it
is deleted (:func:`clear_stop`), a resumed run finishes the campaign
byte-identically.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Iterable, List, Tuple

from ..durable import SealedLog, atomic_write, canonical_json
from .spec import CampaignJob

STORE_NAME = "campaign.jsonl"
AGGREGATE_NAME = "aggregate.json"
STOP_NAME = "STOP"

#: damaged lines are preserved here, one per line, for post-mortems
QUARANTINE_SUFFIX = ".quarantine"


def job_record(job: CampaignJob, status: str, source: str, attempts: int,
               wall_s: float, **fields) -> Dict:
    """One job's record line: ``status`` ``"ok"`` carries ``payload=``,
    ``"quarantined"`` carries ``error=``; ``source`` is ``"executed"``,
    ``"cache"`` or ``"resumed"``."""
    return {"job_id": job.job_id, "digest": job.digest, "job": job.to_dict(),
            "status": status, "source": source, "attempts": attempts,
            "wall_s": wall_s, **fields}


def request_stop(directory: str) -> None:
    """Ask every executor of the campaign in ``directory`` to stop at its
    next safe boundary."""
    atomic_write(os.path.join(directory, STOP_NAME), "stop\n")


def clear_stop(directory: str) -> None:
    try:
        os.unlink(os.path.join(directory, STOP_NAME))
    except FileNotFoundError:
        pass


def stop_requested(directory: str) -> bool:
    return os.path.exists(os.path.join(directory, STOP_NAME))


class ResultStore(SealedLog):
    """The campaign's sealed record log (:class:`~repro.durable.SealedLog`),
    its quarantine policy for damaged lines, and the aggregate artifact.

    :meth:`append` holds the store's lock and takes the cluster's commit
    ``fence``; :meth:`rewrite` atomically replaces the whole log.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        super().__init__(os.path.join(directory, STORE_NAME))
        self.aggregate_path = os.path.join(directory, AGGREGATE_NAME)
        self.quarantine_path = self.path + QUARANTINE_SUFFIX

    def load(self) -> List[Dict]:
        """Read back every intact record, quarantining damaged lines.

        A corrupt *complete* line (newline-terminated but failing its CRC
        or JSON parse) is quarantined: warn, copy the raw line to the
        quarantine file, keep scanning — records after the damage are not
        lost.  An *unterminated* final fragment is different: it is either
        an append in flight on a live writer or a torn tail from a kill
        mid-append, and in both cases the writer may still complete it —
        so it is skipped with a warning, never quarantined, and left in
        the file for the next reader.  (Before this distinction existed,
        any reader polling a live store would "quarantine" every append
        it happened to race — the concurrent-tailer bug.)
        """
        records, damaged, _, partial = self.read()
        for line, exc in damaged:
            warnings.warn(
                f"result store {self.path}: skipping damaged record "
                f"({exc}); preserved in {self.quarantine_path}",
                RuntimeWarning, stacklevel=2)
            with open(self.quarantine_path, "ab") as handle:
                handle.write(line + b"\n")
        if partial.strip():
            warnings.warn(
                f"result store {self.path}: ignoring an unterminated "
                f"partial tail line ({len(partial)} bytes) — either an "
                f"append in flight or a torn tail from a kill",
                RuntimeWarning, stacklevel=2)
        return records

    def tail(self, offset: int = 0) -> Tuple[List[Dict], int]:
        """Incrementally read records appended at or after byte ``offset``.

        The concurrent-tailer API: safe to call while a writer is
        appending.  Only newline-terminated lines are consumed, so a
        partially-written last line is *not* misread as damage — it is
        simply not consumed, and the next poll (with the returned offset)
        picks it up once the writer finishes it.  Damaged complete lines
        are skipped with a warning but never quarantined: a tailer is a
        read-only observer and must not race the writer (or other
        tailers) for the quarantine file.

        Returns ``(records, next_offset)``.  An ``offset`` that does not
        sit on a record boundary — past the end, or the byte before it
        is not a newline (a client's stale or made-up offset, or a store
        the resume replaced underneath) — holds its position and returns
        no records rather than replaying lines or misreading mid-line
        bytes as damage.
        """
        records, damaged, next_offset, _ = self.read(max(offset, 0))
        for _, exc in damaged:
            warnings.warn(
                f"result store {self.path}: tail skipped a damaged "
                f"record ({exc})", RuntimeWarning, stacklevel=2)
        return records, next_offset

    def write_aggregate(self, records: Iterable[Dict],
                        quarantined: Iterable[Dict]) -> str:
        """Write the deterministic aggregate artifact.

        Only content-derived fields go in: job spec, digest, and result
        payload for completed jobs, plus the ids of quarantined jobs.
        Timing and attempt metadata stay in the JSONL log — they vary
        between runs and would break the byte-identity guarantee.

        The file is ``canonical_json({"jobs": [...], "quarantined":
        [...]})``, streamed to :func:`atomic_write` one job entry at a
        time, never joined: an entry splices a payload's carried text
        (:class:`~repro.durable.Canonical`) and renders only a plain one.
        """
        ordered = sorted(records, key=lambda r: r["job_id"])
        ids = sorted(record["job_id"] for record in quarantined)

        def pieces():
            yield '{"jobs":['
            for index, record in enumerate(ordered):
                yield ("," if index else "") + canonical_json({
                    "job_id": record["job_id"],
                    "digest": record["digest"],
                    "job": record["job"],
                    "payload": record["payload"],
                })
            yield '],"quarantined":' + canonical_json(ids) + "}"

        atomic_write(self.aggregate_path, pieces())
        return self.aggregate_path
