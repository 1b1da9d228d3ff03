"""AdmissionJournal: durable append, torn-tail replay, fold, compaction."""

import json

import pytest

from repro.durable import seal_record, unseal_record
from repro.resilience import (AdmissionJournal, JournalState,
                              compaction_records, fold_journal)

SPEC = {"count": 2, "cycles": 8_000, "seed": 9}


def test_append_replay_roundtrip(tmp_path):
    journal = AdmissionJournal(str(tmp_path))
    journal.admit("cmp-000001", "t1", 0, SPEC, idempotency_key="k1")
    journal.state("cmp-000001", "running", attempts=1)
    journal.state("cmp-000001", "completed", attempts=1)
    records = journal.replay()
    assert [r["op"] for r in records] == ["admit", "state", "state"]
    assert records[0]["spec"] == SPEC
    assert records[0]["idempotency_key"] == "k1"
    # the on-disk lines carry the store-format CRC seal
    with open(journal.path) as handle:
        for line in handle:
            assert "_crc32" in json.loads(line)
            unseal_record(line)          # raises if the seal is wrong


def test_replay_skips_torn_tail_without_losing_prefix(tmp_path):
    journal = AdmissionJournal(str(tmp_path))
    journal.admit("cmp-000001", "t1", 0, SPEC)
    journal.state("cmp-000001", "running", attempts=1)
    # simulate SIGKILL mid-append: an unterminated fragment at the end
    with open(journal.path, "a") as handle:
        handle.write(seal_record({"op": "state",
                                  "campaign_id": "cmp-000001",
                                  "state": "completed"})[:17])
    with pytest.warns(RuntimeWarning, match="torn tail"):
        records = journal.replay()
    assert [r["op"] for r in records] == ["admit", "state"]
    state = fold_journal(records)
    # the interrupted transition never took effect: still running
    assert state.campaigns["cmp-000001"].state == "running"


def test_replay_skips_damaged_line_and_fold_drops_orphans(tmp_path):
    journal = AdmissionJournal(str(tmp_path))
    journal.admit("cmp-000001", "t1", 0, SPEC)
    journal.admit("cmp-000002", "t2", 1, SPEC)
    journal.state("cmp-000002", "running", attempts=1)
    lines = open(journal.path).read().splitlines()
    # corrupt campaign 2's admit line (bit flip), keep its state line
    lines[1] = lines[1].replace("t2", "tX")
    with open(journal.path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.warns(RuntimeWarning, match="damaged"):
        records = journal.replay()
    state = fold_journal(records)
    # the orphaned state transition cannot be re-queued: dropped
    assert sorted(state.campaigns) == ["cmp-000001"]


def test_fold_latest_state_wins_and_tracks_seq(tmp_path):
    journal = AdmissionJournal(str(tmp_path))
    journal.admit("cmp-000003", "t1", 0, SPEC, deadline_at=123.5)
    journal.state("cmp-000003", "running", attempts=1)
    journal.state("cmp-000003", "queued", attempts=1)    # evicted
    journal.state("cmp-000003", "running", attempts=2)
    state = fold_journal(journal.replay())
    entry = state.campaigns["cmp-000003"]
    assert entry.state == "running" and entry.attempts == 2
    assert entry.deadline_at == 123.5
    assert state.max_seq == 3


def test_idempotency_map_is_per_tenant(tmp_path):
    journal = AdmissionJournal(str(tmp_path))
    journal.admit("cmp-000001", "t1", 0, SPEC, idempotency_key="same")
    journal.admit("cmp-000002", "t2", 0, SPEC, idempotency_key="same")
    state = fold_journal(journal.replay())
    assert state.idempotency[("t1", "same")] == "cmp-000001"
    assert state.idempotency[("t2", "same")] == "cmp-000002"


def test_compaction_folds_back_identically(tmp_path):
    journal = AdmissionJournal(str(tmp_path))
    journal.admit("cmp-000001", "t1", 0, SPEC, idempotency_key="k")
    for state_name in ("running", "queued", "running", "completed"):
        journal.state("cmp-000001", state_name, attempts=2)
    journal.admit("cmp-000002", "t2", 3, SPEC)
    before = fold_journal(journal.replay())

    journal.rewrite(compaction_records(before))
    after = fold_journal(journal.replay())

    assert after.campaigns.keys() == before.campaigns.keys()
    for cid, entry in before.campaigns.items():
        compacted = after.campaigns[cid]
        assert (compacted.state, compacted.attempts,
                compacted.tenant, compacted.priority,
                compacted.idempotency_key) == \
            (entry.state, entry.attempts, entry.tenant,
             entry.priority, entry.idempotency_key)
    assert after.idempotency == before.idempotency
    assert after.max_seq == before.max_seq
    # and it is actually smaller: one admit + one state, one admit
    assert len(journal.replay()) == 3


def test_compaction_preserves_admission_order(tmp_path):
    state = JournalState()
    journal = AdmissionJournal(str(tmp_path))
    for i in (2, 1, 3):
        journal.admit(f"cmp-{i:06d}", "t", 0, SPEC)
    state = fold_journal(journal.replay())
    admits = [r["campaign_id"] for r in compaction_records(state)
              if r["op"] == "admit"]
    assert admits == ["cmp-000002", "cmp-000001", "cmp-000003"]


def test_replay_missing_file_is_empty(tmp_path):
    assert AdmissionJournal(str(tmp_path)).replay() == []
