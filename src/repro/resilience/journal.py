"""Write-ahead admission journal: the service's durable memory.

Every admission decision and campaign state transition is appended here
*before* it takes effect in memory, so a crashed or redeployed
:class:`~repro.serve.service.CampaignService` can rebuild its queue,
its tenant accounting, and its id sequence by replaying the file —
closing the loop with the per-job checkpoints (docs/checkpoint.md) that
were already surviving crashes but sitting on disk unclaimed.

The journal is a :class:`repro.durable.SealedLog`, like the result
store: one JSON object per line, each carrying a ``_crc32`` over the
canonical serialisation of the rest, so a torn tail from a SIGKILL
mid-append and a bit-flipped line from a bad disk are both detected on
replay.  Appends are flushed and fsynced before returning — the
write-ahead property is only real if the line is durable before the
in-memory state machine moves.

Record kinds::

    {"op": "admit", "campaign_id": "cmp-000001", "tenant": "t1",
     "priority": 0, "spec": {...}, "idempotency_key": "...", ...}
    {"op": "state", "campaign_id": "cmp-000001", "state": "running",
     "attempts": 1}

:func:`fold_journal` reduces a replayed record list to the surviving
per-campaign truth (latest state wins), the idempotency-key map, and
the id-sequence high-water mark.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..durable import SealedLog

JOURNAL_NAME = "journal.jsonl"

#: campaign id shape the sequence watermark is recovered from
_CAMPAIGN_ID = re.compile(r"^cmp-(\d+)$")


class AdmissionJournal:
    """Append-only, CRC-guarded JSONL journal with atomic compaction.

    ``name`` selects the file inside ``directory`` — the default is the
    service admission journal; ``repro.cluster`` reuses the exact same
    journal (and its torn-tail-tolerant replay) for its lease/claim
    event log under ``cluster.jsonl``, which several nodes append to.
    """

    def __init__(self, directory: str, name: str = JOURNAL_NAME) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.log = SealedLog(os.path.join(directory, name))
        self.path = self.log.path

    def append(self, op: str, **fields) -> Dict:
        """Durably append one journal record; returns the record."""
        record = {"op": op, **fields}
        self.log.append(record)
        return record

    def admit(self, campaign_id: str, tenant: str, priority: int,
              spec: Dict, idempotency_key: Optional[str] = None,
              deadline_at: Optional[float] = None) -> Dict:
        return self.append("admit", campaign_id=campaign_id, tenant=tenant,
                           priority=priority, spec=spec,
                           idempotency_key=idempotency_key,
                           deadline_at=deadline_at)

    def state(self, campaign_id: str, state: str, attempts: int = 0,
              **fields) -> Dict:
        return self.append("state", campaign_id=campaign_id, state=state,
                           attempts=attempts, **fields)

    def replay(self) -> List[Dict]:
        """Read back every intact record, in append order.

        A damaged *complete* line (CRC or parse failure) is skipped with
        a warning — the records after it are still recovered.  An
        unterminated final fragment is the torn tail of the append the
        crash interrupted; its state transition never took effect, so
        skipping it is the correct replay semantics, not data loss.
        """
        records, damaged, _, partial = self.log.read()
        if partial.strip():
            warnings.warn(
                f"admission journal {self.path}: ignoring a torn tail "
                f"line ({len(partial)} bytes) from an interrupted append",
                RuntimeWarning, stacklevel=2)
        for _, exc in damaged:
            warnings.warn(
                f"admission journal {self.path}: skipping a damaged "
                f"record ({exc})", RuntimeWarning, stacklevel=2)
        return records

    def rewrite(self, records: List[Dict]) -> None:
        """Atomically replace the journal (compaction after recovery)."""
        self.log.rewrite(records)


@dataclass
class JournaledCampaign:
    """One campaign's folded journal truth."""

    campaign_id: str
    tenant: str
    priority: int
    spec: Dict
    idempotency_key: Optional[str] = None
    deadline_at: Optional[float] = None
    state: str = "queued"
    attempts: int = 0
    order: int = 0                 # admission order (replay position)


@dataclass
class JournalState:
    """The reduction of a full journal replay."""

    campaigns: Dict[str, JournaledCampaign] = field(default_factory=dict)
    #: ``(tenant, key) -> campaign_id`` for idempotent re-submission
    idempotency: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: highest ``cmp-NNNNNN`` sequence number ever admitted
    max_seq: int = 0


def fold_journal(records: List[Dict]) -> JournalState:
    """Reduce replayed records to per-campaign state (latest wins).

    State transitions for campaigns with no surviving ``admit`` record
    (a damaged line) are dropped — a campaign the journal cannot
    re-describe cannot be re-queued, only its directory remains for
    manual inspection.
    """
    state = JournalState()
    for order, record in enumerate(records):
        campaign_id = record.get("campaign_id")
        if not campaign_id:
            continue
        if record.get("op") == "admit":
            entry = JournaledCampaign(
                campaign_id=campaign_id,
                tenant=record.get("tenant", "anonymous"),
                priority=int(record.get("priority", 0)),
                spec=dict(record.get("spec") or {}),
                idempotency_key=record.get("idempotency_key"),
                deadline_at=record.get("deadline_at"),
                order=order)
            state.campaigns[campaign_id] = entry
            if entry.idempotency_key:
                state.idempotency[(entry.tenant, entry.idempotency_key)] \
                    = campaign_id
            match = _CAMPAIGN_ID.match(campaign_id)
            if match:
                state.max_seq = max(state.max_seq, int(match.group(1)))
        elif record.get("op") == "state":
            entry = state.campaigns.get(campaign_id)
            if entry is None:
                continue
            entry.state = record.get("state", entry.state)
            entry.attempts = int(record.get("attempts", entry.attempts))
    return state


def compaction_records(state: JournalState) -> List[Dict]:
    """The minimal record list that folds back to ``state``.

    One ``admit`` per campaign (admission order preserved) plus one
    ``state`` per campaign that has moved past its initial state —
    bounding journal growth across restarts to O(campaigns), not
    O(transitions).
    """
    records: List[Dict] = []
    ordered = sorted(state.campaigns.values(), key=lambda e: e.order)
    for entry in ordered:
        records.append({
            "op": "admit", "campaign_id": entry.campaign_id,
            "tenant": entry.tenant, "priority": entry.priority,
            "spec": entry.spec, "idempotency_key": entry.idempotency_key,
            "deadline_at": entry.deadline_at,
        })
    for entry in ordered:
        if entry.state != "queued" or entry.attempts:
            records.append({
                "op": "state", "campaign_id": entry.campaign_id,
                "state": entry.state, "attempts": entry.attempts,
            })
    return records
