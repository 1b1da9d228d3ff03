"""Content-addressed result cache for profiling campaigns.

Each entry is one file, ``<digest>.json``, where the digest is the job's
content hash (spec + package version + payload schema — see
:func:`repro.fleet.spec.job_digest`).  Re-running a campaign therefore
only executes jobs whose spec, device config, or simulator version
actually changed; everything else is a hit.

The cache is safe to share between *processes and nodes* (it is the
multi-node fleet's dedupe layer):

* writes are :func:`~repro.durable.atomic_write`: concurrent writers of
  the same digest race harmlessly (last rename wins, both wrote the
  same bytes) and a killed writer can never leave a half-written entry
  under the final name;
* every entry is one sealed record (:func:`~repro.durable.seal_record`),
  re-verified on :meth:`lookup` together with the entry's digest field,
  so a bit-flipped, unsealed or foreign entry is **quarantined** (moved
  to ``<digest>.json.quarantine`` for post-mortems) and reported as a
  miss instead of being served as science.

A hit is served as a :class:`~repro.durable.Canonical` whose text is
sliced from the verified entry, so re-running a campaign from the cache
renders no payload: the store line and the aggregate splice the text.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, Optional

from ..durable import (Canonical, atomic_write, canonical_json, seal_record,
                       unseal_body)
from ..obs import runtime as _obs
from .spec import CampaignJob

#: a damaged entry is preserved under this suffix, never served again
QUARANTINE_SUFFIX = ".quarantine"


def _payload(entry: Dict, body: Optional[bytes]) -> Dict:
    """The entry's payload, with its text when ``body`` (the entry's
    verified canonical bytes) is the other members' canonical head, then
    the payload, then the closing brace; else the plain dict."""
    if body is not None:
        head = canonical_json({key: value for key, value in entry.items()
                               if key != "payload"})
        head = head[:-1].encode("utf-8") + b',"payload":'
        if body.startswith(head) and body.endswith(b"}") and body.isascii():
            return Canonical(entry["payload"],
                             body[len(head):-1].decode("ascii"))
    return entry["payload"]


class ResultCache:
    """Directory of content-addressed job payloads."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, f"{digest}.json")

    def _reject(self, job: CampaignJob, path: str, reason: str) -> None:
        """Move a bad entry aside: a miss now, evidence later."""
        warnings.warn(
            f"result cache {path}: quarantining damaged entry ({reason})",
            RuntimeWarning, stacklevel=3)
        try:
            os.replace(path, path + QUARANTINE_SUFFIX)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._note("miss", job)

    def lookup(self, job: CampaignJob) -> Optional[Dict]:
        """Return the cached payload for ``job``, or None on miss.

        The entry is re-verified before it is served: it must unseal
        (a torn, bit-flipped or unsealed entry is not a hit) and its
        recorded digest must match the job's (a foreign entry copied
        into the wrong name is not a hit).  Any failure quarantines the
        entry and reports a miss — the job simply re-executes, which is
        always safe.
        """
        path = self._path(job.digest)
        try:
            with open(path, "rb") as handle:
                entry, body = unseal_body(handle.read())
        except FileNotFoundError:
            self._note("miss", job)
            return None
        except (ValueError, OSError) as exc:
            return self._reject(job, path, str(exc))
        if not isinstance(entry.get("payload"), dict):
            return self._reject(job, path, "entry has no payload object")
        if entry.get("digest") != job.digest:
            return self._reject(
                job, path, f"digest mismatch: entry claims "
                           f"{str(entry.get('digest'))[:12]}..., "
                           f"job is {job.digest[:12]}...")
        self._note("hit", job)
        return _payload(entry, body)

    def _note(self, result: str, job: CampaignJob) -> None:
        if result == "hit":
            self.hits += 1
        else:
            self.misses += 1
        tel = _obs._active
        if tel is not None:
            tel.cache_lookup(result, job.digest)

    def store(self, job: CampaignJob, payload: Dict) -> str:
        """Persist a job payload atomically; returns the entry path.

        Concurrent multi-node writers of the same digest each land a
        complete entry (payloads are deterministic, so whichever rename
        wins the bytes are the same), and a reader can never observe a
        torn entry under the final name.  Durability matters on the
        shared directory: a node may crash right after another node's
        lookup decision depended on this entry existing.
        """
        path = self._path(job.digest)
        atomic_write(path, seal_record({
            "digest": job.digest, "job": job.to_dict(), "payload": payload}))
        return path

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root)
                   if name.endswith(".json"))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
