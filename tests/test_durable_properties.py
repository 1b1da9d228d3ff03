"""One property suite for every sealed on-disk format.

Every JSON format the package persists is one record sealed by
:func:`repro.durable.seal_record` (a ``_crc32`` over the canonical rest):
result-store and journal lines, the cluster's lease, fence, manifest,
done, final and node files, cache entries, checkpoints, checkpoint
message-log segments and trace summary sidecars.  Damage detection is
therefore tested here once, through each format's real writer and real
reader:

* the record round-trips;
* truncation at any byte is rejected, with or without a newline after
  the cut;
* any single-bit flip is rejected, unless the flipped bytes still parse
  to the identical sealed document (a value-preserving spelling such as
  ``1e-05`` vs ``1E-05``, or a 17th float digit that rounds to the same
  double); the exhaustive sweep over a plain record shows none is
  accepted at all — a damaged ``_crc32`` key included;
* a torn final line of a line log (the store, the journal, a message
  log) is skipped and the prefix before it survives, and an append after
  it loses neither the prefix nor the appended record;
* a line in the one-pass form (``{"_crc32":N,`` then the canonical body)
  passes the spaced-form release's parse-and-re-render check, and a
  line in that spaced form still reads back as the same value.

"Rejected" means the reader's own policy: the store quarantines, the
journal skips, a lease reads as absent, the cache misses, and the
checkpoint, cluster-file and summary readers raise.

The three line logs share one scanner, ``SealedLog.read`` in
:mod:`repro.durable`; its cases (damage mid-log, invalid UTF-8, blank
lines, a missing file, offsets on and off a record boundary, an
unterminated tail) are tested once, near the end of this file.  Last
come the :class:`~repro.durable.Canonical` payloads, whose carried text
the cache entry, the seal and the aggregate splice and a cache hit
slices back out.
"""

import copy
import json
import os
import pickle
import string
import tempfile
import warnings
import zlib
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import (CheckpointError, MessageLog, load_checkpoint,
                              save_checkpoint)
from repro.cluster.coordinator import _read_sealed
from repro.cluster.lease import Lease, LeaseManager
from repro.durable import (CRC_FIELD, Canonical, SealedLog, atomic_write,
                           seal_record)
from repro.errors import ClusterError, TraceStoreError
from repro.fleet.cache import ResultCache
from repro.fleet.spec import CampaignJob
from repro.fleet.store import ResultStore
from repro.resilience.journal import AdmissionJournal
from repro.traces.summary import StreamingSummary, load_summary, write_summary

JOB = CampaignJob(name="c0", domain="engine", device="tc1797", cycles=2_000)


class Format(NamedTuple):
    values: st.SearchStrategy            # what the writer is given
    write: Callable[[str, object], str]  # (dir, value) -> path written
    read: Callable[[str], object]        # dir -> decoded value or None
    sample: object                       # a plain value for the sweep


def _only(records):
    """A one-record log's record; None when nothing survived."""
    return records[0] if len(records) == 1 else records or None


def _rejects(error, read):
    def guarded(directory):
        try:
            return read(directory)
        except error:
            return None
    return guarded


# -- writers and readers -----------------------------------------------------
def _store_write(directory, record):
    store = ResultStore(directory)
    store.append(record)
    return store.path


def _journal_write(directory, record):
    journal = AdmissionJournal(directory)
    journal.append(record["op"], **{key: value for key, value
                                    in record.items() if key != "op"})
    return journal.path


def _lease_write(directory, lease):
    path = LeaseManager(directory, "n")._path(lease.resource)
    atomic_write(path, seal_record(lease.to_record()) + "\n")
    return path


def _cluster_write(directory, record):
    """The writer every coordinator/lease/node file shares."""
    path = os.path.join(directory, "record.json")
    atomic_write(path, seal_record(record) + "\n")
    return path


def _cache_write(directory, payload):
    return ResultCache(directory).store(JOB, payload)


def _checkpoint_write(directory, value):
    return save_checkpoint(os.path.join(directory, "x.ckpt"), *value)


def _message_log(directory):
    return MessageLog(os.path.join(directory, "j.msglog"))


def _message_log_write(directory, segment):
    log = _message_log(directory)
    log.append(**segment)
    return log.path


def _summary_write(directory, body):
    return write_summary(os.path.join(directory, "s.summary.json"), body)


# -- value strategies --------------------------------------------------------
names = st.text(string.ascii_letters + string.digits + "-_.", min_size=1,
                max_size=10)
counts = st.integers(0, 10**6)
tokens = st.integers(1, 2**40)
times = st.floats(0, 4e9)
scalars = (st.none() | st.booleans() | st.integers(-2**63, 2**63)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=8))
json_values = st.recursive(
    scalars, lambda children: (st.lists(children, max_size=3)
                               | st.dictionaries(st.text(max_size=6),
                                                 children, max_size=3)),
    max_leaves=8)
objects = st.dictionaries(st.text(max_size=8), json_values, max_size=4) \
    .filter(lambda record: CRC_FIELD not in record)


def kind(label, **fields):
    return st.fixed_dictionaries({"kind": st.just(label), **fields})


store_records = st.fixed_dictionaries({
    "job_id": names, "digest": st.text("0123456789abcdef", max_size=64),
    "job": st.just(JOB.to_dict()),
    "status": st.sampled_from(["ok", "quarantined"]),
    "source": st.sampled_from(["executed", "cache", "resumed"]),
    "attempts": counts, "wall_s": st.floats(0, 1e4), "payload": objects})
journal_records = st.builds(
    lambda op, fields: {**fields, "op": op}, names,
    objects.filter(lambda fields: "self" not in fields))
leases = st.builds(Lease, resource=st.just("batch-0000"), node=names,
                   token=tokens, claimed_at=times, expires_at=times,
                   renewals=counts)
jobs = st.lists(st.just(JOB.to_dict()), max_size=2)
trace_messages = st.fixed_dictionaries({
    "kind": names, "cycle": counts, "bits": st.integers(1, 64),
    "source": st.text(max_size=6), "value": st.integers(0, 2**32),
    "address": st.none() | st.integers(0, 2**32),
    "extra": st.dictionaries(st.sampled_from(["tainted", "write", "crc"]),
                             st.booleans() | counts, max_size=2)})
segments = st.fixed_dictionaries({
    "cycle": st.integers(1, 10**6), "after": counts, "start": counts,
    "messages": st.lists(trace_messages, max_size=3)})
checkpoints = st.tuples(
    st.dictionaries(names, json_values | st.binary(max_size=8)
                    | st.tuples(counts, counts), max_size=4),
    st.dictionaries(names, counts, max_size=3))


def _summary_sample():
    summary = StreamingSummary(top_n=2)
    summary.observe("job.execute", "X", 10.0, 2.5, "c0", None)
    summary.observe("gap.recorded", "i", 20.0, 0.0, "c0", {"lost": 3})
    return summary.to_dict()


STORE_SAMPLE = {"job_id": "c0-1f2e3d4c5b", "status": "ok",
                "attempts": 1, "wall_s": 0.25, "payload": {"ipc": 0.75}}

FORMATS = {
    "store-line": Format(
        store_records, _store_write,
        lambda d: _only(ResultStore(d).load()), STORE_SAMPLE),
    "journal-line": Format(
        journal_records, _journal_write,
        lambda d: _only(AdmissionJournal(d).replay()),
        {"op": "state", "campaign_id": "cmp-000001", "state": "running",
         "attempts": 1}),
    "lease": Format(
        leases, _lease_write,
        lambda d: LeaseManager(d, "n").read("batch-0000"),
        Lease("batch-0000", "node-1", 7, 100.5, 110.5, 2)),
    "cache-entry": Format(
        objects, _cache_write, lambda d: ResultCache(d).lookup(JOB),
        {"name": "c0", "profile": {"ipc": [0.5, 0.75]}}),
    "checkpoint": Format(
        checkpoints, _checkpoint_write,
        _rejects(CheckpointError,
                 lambda d: load_checkpoint(os.path.join(d, "x.ckpt"))),
        ({"pc": 42, "regs": (1, 2), "mem": b"\x00\x01"}, {"cycle": 1000})),
    "message-log": Format(
        segments, _message_log_write,
        lambda d: _only(_message_log(d).segments()),
        {"cycle": 5_000, "after": 0, "start": 0,
         "messages": [{"kind": "rate", "cycle": 4_990, "bits": 25,
                       "source": "ipc", "value": 201, "address": None,
                       "extra": {}}]}),
    "trace-summary": Format(
        objects, _summary_write,
        _rejects(TraceStoreError, lambda d: load_summary(
            os.path.join(d, "s.summary.json"))),
        _summary_sample()),
}
_read_cluster_file = _rejects(ClusterError, lambda d: _read_sealed(
    os.path.join(d, "record.json"), "cluster file"))
for _kind, _fields, _sample in (
        ("fence", {"token": tokens}, {"token": 12}),
        ("manifest", {"version": names, "jobs": jobs,
                      "checkpoint_every": counts, "max_retries": counts,
                      "fault_plan": st.none() | objects,
                      "deadline_at": st.none() | times,
                      "cache": st.booleans()},
         {"version": "0.1.0", "jobs": [JOB.to_dict()],
          "checkpoint_every": 500, "max_retries": 2, "fault_plan": None,
          "deadline_at": None, "cache": True}),
        ("done", {"job": names, "node": names, "token": tokens},
         {"job": JOB.digest, "node": "node-1", "token": 3}),
        ("final", {"node": names, "ok": counts, "quarantined": counts},
         {"node": "node-1", "ok": 4, "quarantined": 0}),
        ("node", {"node": names, "pid": counts, "ttl_s": times,
                  "state": names, "updated_at": times, "jobs_done": counts},
         {"node": "node-1", "pid": 4242, "ttl_s": 5.0, "state": "working",
          "updated_at": 1234.5, "jobs_done": 2})):
    FORMATS[_kind] = Format(kind(_kind, **_fields), _cluster_write,
                            _read_cluster_file, {"kind": _kind, **_sample})

LOGS = {"store-line": lambda d: ResultStore(d).load(),
        "journal-line": lambda d: AdmissionJournal(d).replay(),
        "message-log": lambda d: _message_log(d).segments()}


# -- helpers -----------------------------------------------------------------
def _bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def _overwrite(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


def _flip(data, position, bit):
    return data[:position] + bytes([data[position] ^ (1 << bit)]) \
        + data[position + 1:]


def _read(fmt, directory):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")    # damage warnings are expected
        return fmt.read(directory)


# -- the properties ----------------------------------------------------------
@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_record_round_trips(name, data):
    fmt = FORMATS[name]
    value = data.draw(fmt.values)
    with tempfile.TemporaryDirectory() as directory:
        fmt.write(directory, value)
        assert _read(fmt, directory) == value


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_truncation_at_any_byte_is_rejected(name, data):
    fmt = FORMATS[name]
    value = data.draw(fmt.values)
    with tempfile.TemporaryDirectory() as directory:
        path = fmt.write(directory, value)
        record = _bytes(path).rstrip(b"\n")
        cut = data.draw(st.integers(0, len(record) - 1))
        newline = data.draw(st.sampled_from([b"", b"\n"]))
        _overwrite(path, record[:cut] + newline)
        assert _read(fmt, directory) is None


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_single_bit_flip_is_rejected_or_value_preserving(name, data):
    fmt = FORMATS[name]
    value = data.draw(fmt.values)
    with tempfile.TemporaryDirectory() as directory:
        path = fmt.write(directory, value)
        raw = _bytes(path)
        flipped = _flip(raw, data.draw(st.integers(0, len(raw) - 1)),
                        data.draw(st.integers(0, 7)))
        _overwrite(path, flipped)
        decoded = _read(fmt, directory)
        if decoded is not None:
            assert decoded == value
            assert json.loads(flipped) == json.loads(raw)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_every_single_bit_flip_of_a_plain_record_is_rejected(name):
    """Exhaustive: every bit of every byte, ``_crc32`` key included — a
    record that lost its checksum key is damaged, never "legacy"."""
    fmt = FORMATS[name]
    with tempfile.TemporaryDirectory() as directory:
        path = fmt.write(directory, fmt.sample)
        raw = _bytes(path)
        assert CRC_FIELD.encode() in raw
        accepted = []
        for position in range(len(raw)):
            for bit in range(8):
                _overwrite(path, _flip(raw, position, bit))
                if _read(fmt, directory) is not None:
                    accepted.append((position, bit))
        assert accepted == []


@pytest.mark.parametrize("name", sorted(LOGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_torn_final_line_is_skipped_and_the_prefix_survives(name, data):
    fmt = FORMATS[name]
    prefix = data.draw(st.lists(fmt.values, min_size=1, max_size=4))
    with tempfile.TemporaryDirectory() as directory:
        for value in prefix:
            path = fmt.write(directory, value)
        intact = os.path.getsize(path)
        fmt.write(directory, data.draw(fmt.values))
        torn = os.path.getsize(path) - intact
        os.truncate(path, intact + data.draw(st.integers(1, torn - 1)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert LOGS[name](directory) == prefix
        assert any("torn" in str(w.message) for w in caught)


@pytest.mark.parametrize("name", sorted(LOGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_append_after_a_torn_final_line_loses_nothing(name, data):
    """The writer died mid-append; the next append through the real
    writer terminates the fragment instead of joining it."""
    fmt = FORMATS[name]
    prefix = data.draw(st.lists(fmt.values, min_size=1, max_size=4))
    torn_value, new_value = data.draw(fmt.values), data.draw(fmt.values)
    with tempfile.TemporaryDirectory() as directory:
        for value in prefix:
            path = fmt.write(directory, value)
        intact = os.path.getsize(path)
        fmt.write(directory, torn_value)
        torn = os.path.getsize(path) - intact
        cut = data.draw(st.integers(1, torn - 1))
        os.truncate(path, intact + cut)
        fmt.write(directory, new_value)
        # cut just before its newline, the fragment is a whole record
        whole = [torn_value] if cut == torn - 1 else []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")    # the fragment is damage
            assert LOGS[name](directory) == prefix + whole + [new_value]


def _spaced_release_unseal(raw):
    """The check every release ran before the seal went in front of the
    body, kept here as the reference: parse, pop the seal, render the
    rest canonically, compare."""
    document = json.loads(raw)
    rest = {key: value for key, value in document.items()
            if key != CRC_FIELD}
    assert zlib.crc32(json.dumps(rest, sort_keys=True, separators=(
        ",", ":")).encode("utf-8")) == document[CRC_FIELD]
    return document


@pytest.mark.parametrize("name", sorted(FORMATS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_both_seal_forms_read_in_both_releases(name, data):
    """The writer's one-pass line passes the spaced-form release's check;
    the same document written in that spaced form (what that release's
    ``json.dumps(sort_keys=True)`` wrote) reads back as the same value."""
    fmt = FORMATS[name]
    value = data.draw(fmt.values)
    with tempfile.TemporaryDirectory() as directory:
        path = fmt.write(directory, value)
        raw = _bytes(path)
        assert raw.startswith(b'{"' + CRC_FIELD.encode() + b'":')
        document = _spaced_release_unseal(raw)
        newline = raw[len(raw.rstrip(b"\n")):]
        _overwrite(path, json.dumps(document, sort_keys=True).encode()
                   + newline)
        assert _read(fmt, directory) == value


# -- the shared line-log reader ----------------------------------------------
def _sealed_log(directory):
    return SealedLog(os.path.join(directory, "x.jsonl"))


def _append_raw(log, data):
    with open(log.path, "ab") as handle:
        handle.write(data)


def test_log_reader_returns_damage_mid_log_and_keeps_what_follows(tmp_path):
    log = _sealed_log(str(tmp_path))
    log.append({"n": 1})
    line = seal_record({"n": 2})
    assert line.endswith("2}")      # the value's digit, in any spacing
    damaged_line = (line[:-2] + "3}").encode()
    _append_raw(log, damaged_line + b"\n")
    log.append({"n": 4})
    records, damaged, next_offset, partial = log.read()
    assert records == [{"n": 1}, {"n": 4}]
    assert [line for line, _ in damaged] == [damaged_line]
    assert "CRC" in str(damaged[0][1])
    assert next_offset == os.path.getsize(log.path) and partial == b""


def test_log_reader_counts_invalid_utf8_as_damage(tmp_path):
    log = _sealed_log(str(tmp_path))
    line = seal_record({"name": "ab"}).encode().replace(b"ab", b"\xc3\x28")
    _append_raw(log, line + b"\n")
    log.append({"n": 1})
    records, damaged, _, _ = log.read()
    assert records == [{"n": 1}]
    assert [line for line, _ in damaged] == [line]
    assert isinstance(damaged[0][1], UnicodeDecodeError)


def test_log_reader_skips_blank_lines(tmp_path):
    log = _sealed_log(str(tmp_path))
    _append_raw(log, b"\n  \n")
    log.append({"n": 1})
    _append_raw(log, b"\n\t\n")
    log.append({"n": 2})
    assert log.read() == ([{"n": 1}, {"n": 2}], [],
                          os.path.getsize(log.path), b"")


def test_log_reader_reads_a_missing_file_as_empty(tmp_path):
    log = _sealed_log(str(tmp_path))
    assert log.read() == ([], [], 0, b"")
    assert log.read(17) == ([], [], 17, b"")
    assert not os.path.exists(log.path)


@settings(max_examples=25, deadline=None)
@given(values=st.lists(objects, min_size=1, max_size=4))
def test_log_reader_reads_from_boundaries_and_holds_elsewhere(values):
    """From a record boundary the reader returns the records after it;
    from any offset mid-record or past the end it returns nothing and
    holds position."""
    with tempfile.TemporaryDirectory() as directory:
        log = _sealed_log(directory)
        boundaries = {0: 0}
        for count, value in enumerate(values, 1):
            log.append(value)
            boundaries[os.path.getsize(log.path)] = count
        size = os.path.getsize(log.path)
        for offset in range(size + 3):
            if offset in boundaries:
                expected = (values[boundaries[offset]:], [], size, b"")
            else:
                expected = ([], [], offset, b"")
            assert log.read(offset) == expected


def test_log_reader_takes_an_unterminated_tail_once_it_lands(tmp_path):
    log = _sealed_log(str(tmp_path))
    log.append({"n": 1})
    line = seal_record({"n": 2}) + "\n"
    half = line[:len(line) // 2].encode()
    _append_raw(log, half)
    records, damaged, offset, partial = log.read()
    assert (records, damaged, partial) == ([{"n": 1}], [], half)
    assert log.read(offset) == ([], [], offset, half)   # not consumed
    _append_raw(log, line[len(line) // 2:].encode())    # its newline lands
    records, damaged, next_offset, partial = log.read(offset)
    assert (records, damaged, partial) == ([{"n": 2}], [], b"")
    assert next_offset == os.path.getsize(log.path)
    assert log.read(next_offset) == ([], [], next_offset, b"")


# -- payload text carried by a Canonical dict --------------------------------
tricky_text = st.sampled_from(
    ["payload", ',"payload":', '"payload":{', "}", "\u00e9\u20ac\U0001d11e",
     "\\\""]) | st.text(max_size=6)
tricky_values = st.recursive(
    scalars | tricky_text,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(tricky_text, children, max_size=3)),
    max_leaves=8)
payloads = st.dictionaries(tricky_text, tricky_values, max_size=4)


def _job_entry(job_id, payload):
    return {"job_id": job_id, "digest": JOB.digest, "job": JOB.to_dict(),
            "payload": payload}


@settings(max_examples=60, deadline=None)
@given(payload=payloads)
def test_carried_text_is_spliced_and_sliced_byte_identically(payload):
    """Nested ``"payload"`` keys, ``,"payload":`` inside strings,
    non-ASCII text and the empty payload: the cache entry, the seal and
    the aggregate splice the carried text to the bytes a full render
    gives, and a cache hit slices it back out whole."""
    reference = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    carried = Canonical(payload)
    assert carried == payload and carried.text == reference
    with pytest.raises(TypeError):
        carried["payload"] = {}
    assert carried == payload and carried.text == reference
    assert seal_record({"job_id": "c0", "payload": carried}) \
        == seal_record({"job_id": "c0", "payload": payload})
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        path = cache.store(JOB, payload)
        plain = _bytes(path)
        cache.store(JOB, carried)
        assert _bytes(path) == plain
        served = cache.lookup(JOB)
        assert type(served) is Canonical
        assert served == payload and served.text == reference
        store = ResultStore(directory)
        store.write_aggregate(
            [_job_entry("b", served), _job_entry("a", payload)],
            [{"job_id": "q"}])
        assert _bytes(store.aggregate_path) == json.dumps(
            {"jobs": [_job_entry("a", payload), _job_entry("b", payload)],
             "quarantined": ["q"]},
            sort_keys=True, separators=(",", ":")).encode()


def test_a_spaced_cache_entry_is_served_without_text(tmp_path):
    """An entry in the spaced form reads through the spaced-form check;
    its payload is served as a plain dict, rendered where it is used."""
    cache = ResultCache(str(tmp_path))
    path = cache.store(JOB, Canonical({"name": "c0", "ipc": [0.5]}))
    _overwrite(path, json.dumps(json.loads(_bytes(path)),
                                sort_keys=True).encode())
    served = cache.lookup(JOB)
    assert type(served) is dict and served == {"name": "c0", "ipc": [0.5]}


def test_a_canonical_dict_refuses_writes_and_keeps_its_text():
    carried = Canonical({"b": [1, 2], "a": "\u00e9"})
    text = carried.text
    writes = [lambda d: d.__setitem__("c", 1), lambda d: d.__delitem__("a"),
              lambda d: d.update(c=1), lambda d: d.pop("a"),
              lambda d: d.popitem(), lambda d: d.setdefault("c", 1),
              lambda d: d.clear(), lambda d: d.__ior__({"c": 1})]
    for write in writes:
        with pytest.raises(TypeError):
            write(carried)
    assert carried == {"b": [1, 2], "a": "\u00e9"} and carried.text == text
    for twin in (pickle.loads(pickle.dumps(carried)), copy.deepcopy(carried)):
        assert type(twin) is Canonical
        assert twin == carried and twin.text == text
