"""repro.traces: columnar store, streaming summary, query, diff, export.

The PR's contract in unit-test form:

* the ``.rtrace`` segment format round-trips every event and rejects
  structural damage (truncation, bit flips, missing tail) loudly;
* a windowed/name/job query reads only the footer plus matching column
  blocks — never the whole file — and reports its exact byte cost;
* the summary sidecar is computed incrementally at ingest and a diff of
  two runs of the same spec is exactly empty, while a perturbed config
  surfaces exactly the perturbed customers;
* the tracer sink streams every event (including ones the bounded
  buffer drops) and campaign payloads are byte-identical with the trace
  store on or off;
* Chrome and Perfetto exports stay structurally valid — and timestamp-
  monotonic for Perfetto — across a mid-campaign device reset.
"""

import dataclasses
import json
import os
import struct
import zlib

import pytest

from repro import traces
from repro.errors import ConfigurationError, TraceStoreError
from repro.fleet import CampaignSpec, run_campaign
from repro.fleet.spec import canonical_json
from repro.obs import SpanTracer, telemetry
from repro.traces import format as tfmt
from repro.traces.export import (decode_message, decode_varint,
                                 encode_varint)
from repro.traces.summary import StreamingSummary

CYCLES = 6_000
SEED = 7


def fake_clock(step=0.001):
    state = {"now": 0.0}

    def clock():
        state["now"] += step
        return state["now"]

    return clock


def write_synthetic(path, spans=200, jobs=4, block_events=16):
    """A deterministic synthetic segment: spans every 10us, 4 customers."""
    with traces.TraceWriter(path, run_id="synthetic",
                            block_events=block_events) as writer:
        writer.set_process(0, "repro")
        writer.set_thread(0, 0, "main")
        for i in range(spans):
            writer.append({
                "name": "job.execute", "cat": "fleet", "ph": "X",
                "ts": i * 10.0, "dur": 4.0, "pid": 0, "tid": 0,
                "args": {"job": f"cust-{i % jobs}", "index": i}})
        writer.append({"name": "gap.recorded", "cat": "mcds", "ph": "i",
                       "s": "t", "ts": spans * 10.0, "pid": 0, "tid": 0,
                       "args": {"lost": 3, "job": "cust-0"}})
    return path


# -- format ------------------------------------------------------------------

def test_pack_unpack_block_round_trip():
    rows = [(float(i), 2.0, 1, 2, i % 3, 0, 0, 0, {"n": i})
            for i in range(10)]
    body, entry = tfmt.pack_block(rows)
    assert entry["count"] == 10
    assert entry["ts_min"] == 0.0 and entry["ts_max"] == 9.0
    assert entry["jobs"] == [1, 2]          # job id 0 is "no job"
    assert tfmt.unpack_block(body, entry) == rows


def test_unpack_block_rejects_bit_flip_and_truncation():
    rows = [(1.0, 2.0, 1, 1, 0, 0, 0, 0, None)]
    body, entry = tfmt.pack_block(rows)
    flipped = bytes([body[0] ^ 0xFF]) + body[1:]
    with pytest.raises(TraceStoreError, match="CRC"):
        tfmt.unpack_block(flipped, entry)
    with pytest.raises(TraceStoreError, match="truncated"):
        tfmt.unpack_block(body[:-1], entry)


def test_string_table_interns_and_guards():
    table = tfmt.StringTable()
    assert table.intern("") == 0
    a = table.intern("alpha")
    assert table.intern("alpha") == a
    assert table[a] == "alpha"
    with pytest.raises(TraceStoreError):
        table[99]
    with pytest.raises(TraceStoreError):
        tfmt.StringTable(["not-empty-first"])


def test_reader_rejects_unclosed_and_damaged_segments(tmp_path):
    # no tail: the writer never closed
    unclosed = tmp_path / "unclosed.rtrace"
    unclosed.write_bytes(tfmt.MAGIC + b"\x00" * 64)
    with pytest.raises(TraceStoreError, match="never closed"):
        traces.TraceReader(str(unclosed))
    # not a segment at all
    other = tmp_path / "other.bin"
    other.write_bytes(b"x" * 64)
    with pytest.raises(TraceStoreError, match="magic"):
        traces.TraceReader(str(other))
    # a real segment with a flipped footer byte
    seg = write_synthetic(str(tmp_path / "ok.rtrace"), spans=20)
    data = bytearray(open(seg, "rb").read())
    data[-(tfmt.TAIL_SIZE + 4)] ^= 0xFF
    damaged = tmp_path / "damaged.rtrace"
    damaged.write_bytes(bytes(data))
    with pytest.raises(TraceStoreError, match="CRC"):
        traces.TraceReader(str(damaged))


# -- writer / reader ---------------------------------------------------------

def test_writer_reader_round_trip(tmp_path):
    seg = write_synthetic(str(tmp_path / "a.rtrace"), spans=50,
                          block_events=16)
    with traces.TraceReader(seg) as reader:
        assert reader.run_id == "synthetic"
        assert reader.counts["events"] == 51
        assert reader.counts["spans"] == 50
        assert reader.counts["instants"] == 1
        assert len(reader.blocks) == 4      # ceil(51 / 16)
        assert reader.process_names[0] == "repro"
        assert reader.thread_names[(0, 0)] == "main"
        events = list(reader.events())
    assert len(events) == 51
    assert events[0] == {"name": "job.execute", "cat": "fleet", "ph": "X",
                         "ts": 0.0, "dur": 4.0, "pid": 0, "tid": 0,
                         "args": {"job": "cust-0", "index": 0}}
    assert events[-1]["name"] == "gap.recorded"
    assert events[-1]["s"] == "t"


def test_writer_skips_foreign_phases_and_streams_metadata(tmp_path):
    path = str(tmp_path / "b.rtrace")
    with traces.TraceWriter(path) as writer:
        writer.append({"name": "process_name", "ph": "M", "pid": 7,
                       "tid": 0, "args": {"name": "worker 7"}})
        writer.append({"name": "flow", "ph": "s", "ts": 1.0,
                       "pid": 0, "tid": 0})
        writer.append({"name": "x", "ph": "X", "ts": 1.0, "dur": 1.0,
                       "pid": 7, "tid": 0})
    with traces.TraceReader(path) as reader:
        assert reader.counts["skipped"] == 1
        assert reader.counts["events"] == 1
        assert reader.process_names[7] == "worker 7"
    # a closed writer refuses further appends
    with pytest.raises(TraceStoreError, match="closed"):
        writer.append({"name": "y", "ph": "X", "ts": 2.0,
                       "pid": 0, "tid": 0})


# -- query -------------------------------------------------------------------

def test_windowed_query_prunes_blocks_and_counts_bytes(tmp_path):
    seg = write_synthetic(str(tmp_path / "q.rtrace"), spans=2_000,
                          block_events=64)
    query = traces.TraceQuery(begin_us=5_000.0, end_us=5_500.0)
    result = traces.query_segment(seg, query)
    assert len(result.events) == 51         # ts 5000..5500 step 10
    assert all(5_000.0 <= e["ts"] <= 5_500.0 for e in result.events)
    assert result.blocks_scanned < result.blocks_total
    assert result.bytes_read < result.file_bytes
    assert result.bytes_fraction < 0.20


def test_query_by_name_job_phase_and_limit(tmp_path):
    seg = write_synthetic(str(tmp_path / "p.rtrace"), spans=80,
                          block_events=16)
    by_job = traces.query_segment(seg, traces.TraceQuery(
        jobs=("cust-1",)))
    assert len(by_job.events) == 20
    assert all((e["args"]["job"] == "cust-1") for e in by_job.events)

    instants = traces.query_segment(seg, traces.TraceQuery(phase="i"))
    assert [e["name"] for e in instants.events] == ["gap.recorded"]

    limited = traces.query_segment(seg, traces.TraceQuery(
        names=("job.execute",), limit=5))
    assert len(limited.events) == 5 and limited.truncated

    # an unknown-only predicate short-circuits: zero blocks read
    unknown = traces.query_segment(seg, traces.TraceQuery(
        names=("no.such.span",)))
    assert unknown.events == [] and unknown.blocks_scanned == 0


def test_query_validation():
    with pytest.raises(ConfigurationError, match="inverted"):
        traces.TraceQuery(begin_us=5.0, end_us=1.0)
    with pytest.raises(ConfigurationError, match="phase"):
        traces.TraceQuery(phase="B")
    with pytest.raises(ConfigurationError, match="limit"):
        traces.TraceQuery(limit=0)


# -- summary -----------------------------------------------------------------

def test_streaming_summary_aggregates():
    summary = StreamingSummary(top_n=3)
    for i in range(10):
        summary.observe("job.execute", "X", i * 10.0, float(i), "cust-0",
                        None)
    summary.observe("gap.recorded", "i", 200.0, 0.0, "cust-0",
                    {"lost": 5})
    summary.observe("job.profile", "i", 210.0, 0.0, "cust-0",
                    {"signal": "tc.ipc", "mean_rate": 0.8,
                     "samples": 12, "degraded": 0})
    summary.observe("job.stats", "i", 220.0, 0.0, "cust-0",
                    {"lost": 5, "gaps": 1, "degraded": 2,
                     "stall_events": 7})
    body = summary.to_dict()
    assert body["spans"] == 10 and body["instants"] == 3
    stat = body["by_name"]["job.execute"]
    assert stat["count"] == 10
    assert stat["dur_max_us"] == 9.0 and stat["dur_min_us"] == 0.0
    assert sum(stat["buckets"]) == 10
    assert body["totals"] == {"gaps": 1, "lost_messages": 10,
                              "degraded_samples": 2, "stall_events": 7}
    assert body["series"]["cust-0"]["tc.ipc"]["mean_rate"] == 0.8
    assert body["by_job"]["cust-0"]["stall_events"] == 7
    slowest = body["slowest"]
    assert [entry["dur_us"] for entry in slowest] == [9.0, 8.0, 7.0]


def test_sidecar_survives_crc_check_and_tamper_falls_back(tmp_path):
    seg = write_synthetic(str(tmp_path / "s.rtrace"), spans=30)
    sidecar = traces.sidecar_path(seg)
    assert os.path.exists(sidecar)
    body = traces.load_summary(sidecar)
    assert body["spans"] == 30
    # tamper: load_summary must reject, summary_for must rebuild
    doc = json.load(open(sidecar))
    doc["body"]["spans"] = 999
    json.dump(doc, open(sidecar, "w"))
    with pytest.raises(TraceStoreError, match="CRC"):
        traces.load_summary(sidecar)
    rebuilt = traces.summary_for(seg)
    assert rebuilt["spans"] == 30
    assert rebuilt["totals"]["lost_messages"] == 3


# -- diff --------------------------------------------------------------------

def test_diff_identical_runs_is_empty():
    summary = StreamingSummary()
    summary.observe("job.profile", "i", 0.0, 0.0, "a",
                    {"signal": "tc.ipc", "mean_rate": 0.8, "samples": 10,
                     "degraded": 0})
    diff = traces.diff_summaries(summary.to_dict(), summary.to_dict())
    assert diff.changes == [] and diff.compared_jobs == 1


def test_diff_direction_and_thresholds():
    def body(ipc, stalls):
        s = StreamingSummary()
        s.observe("job.profile", "i", 0.0, 0.0, "a",
                  {"signal": "tc.ipc", "mean_rate": ipc, "samples": 10,
                   "degraded": 0})
        s.observe("job.stats", "i", 1.0, 0.0, "a",
                  {"lost": 0, "gaps": 0, "degraded": 0,
                   "stall_events": stalls})
        return s.to_dict()

    diff = traces.diff_summaries(body(0.80, 5), body(0.60, 9))
    metrics = {e.metric: e for e in diff.changes}
    assert metrics["tc.ipc.mean_rate"].worse is True     # IPC down = worse
    assert metrics["stall_events"].worse is True         # stalls up = worse
    assert diff.regressions and not diff.improvements

    # below the relative threshold: silence
    quiet = traces.diff_summaries(body(0.800, 5), body(0.801, 5),
                                  rel_threshold=0.05)
    assert quiet.changes == []


# -- tracer sink + recording -------------------------------------------------

def test_sink_sees_events_the_buffer_drops(tmp_path):
    path = str(tmp_path / "sink.rtrace")
    tracer = SpanTracer(clock=fake_clock(), max_events=5)
    writer = traces.TraceWriter(path)
    tracer.attach_sink(writer)
    with pytest.raises(RuntimeError):
        tracer.attach_sink(writer)          # one sink at a time
    for i in range(50):
        tracer.instant("tick", args={"i": i})
    assert tracer.detach_sink() is writer
    writer.close()
    assert tracer.dropped_events == 45
    assert len(tracer.events) == 6          # 5 real + trace.buffer_full
    with traces.TraceReader(path) as reader:
        assert reader.counts["events"] == 50   # the sink missed nothing
    summary = traces.summary_for(path)
    # the overflow marker stays out of the sink stream by design
    assert summary["buffer_overflows"] == 0


def test_recording_seals_segment_even_on_error(tmp_path):
    path = str(tmp_path / "sealed.rtrace")
    with pytest.raises(RuntimeError, match="boom"):
        with telemetry(run_id="r1", clock=fake_clock()) as tel:
            with traces.recording(tel, path):
                tel.instant("before.crash")
                raise RuntimeError("boom")
    with traces.TraceReader(path) as reader:
        assert reader.run_id == "r1"
        assert reader.counts["events"] == 1
    assert tel.tracer._sink is None         # detached on the way out


def test_dropped_events_metric_wired(tmp_path):
    with telemetry(clock=fake_clock()) as tel:
        tel.tracer.max_events = 3
        for _ in range(10):
            tel.instant("x")
        assert tel.registry.get("repro_obs_spans_dropped_total").value() == 7


# -- chrome / perfetto export ------------------------------------------------

def test_varint_round_trip():
    for value in (0, 1, 127, 128, 300, 2 ** 35, 2 ** 63):
        data = encode_varint(value)
        decoded, offset = decode_varint(data, 0)
        assert decoded == value and offset == len(data)


def test_chrome_export_round_trips_through_ingest(tmp_path):
    seg = write_synthetic(str(tmp_path / "c.rtrace"), spans=40)
    chrome = str(tmp_path / "c.json")
    with traces.TraceReader(seg) as reader:
        traces.write_chrome(reader, chrome)
    body = json.load(open(chrome))
    events = body["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in meta} == {"process_name", "thread_name"}
    assert len(events) == 41 + len(meta)
    # the exported file ingests back into an equivalent segment
    seg2 = str(tmp_path / "c2.rtrace")
    traces.ingest_chrome(chrome, seg2)
    with traces.TraceReader(seg) as ra, traces.TraceReader(seg2) as rb:
        assert list(ra.events()) == list(rb.events())
        assert rb.process_names[0] == "repro"


def test_perfetto_export_decodes_and_is_monotonic(tmp_path):
    seg = write_synthetic(str(tmp_path / "pf.rtrace"), spans=30)
    with traces.TraceReader(seg) as reader:
        blob = traces.to_perfetto(reader)
    packets = [value for number, _, value in decode_message(blob)
               if number == 1]
    descriptors = begins = ends = instants = 0
    timestamps = []
    for packet in packets:
        fields = dict((n, v) for n, _, v in decode_message(packet))
        if 60 in fields:
            descriptors += 1
            continue
        timestamps.append(fields[8])
        assert fields[10] == 1              # one trusted sequence
        event = dict((n, v) for n, _, v in decode_message(fields[11]))
        kind = event[9]
        if kind == 1:
            begins += 1
            assert event[23] == b"job.execute"
        elif kind == 2:
            ends += 1
        else:
            assert kind == 3
            instants += 1
    assert descriptors == 2                 # one process + one thread lane
    assert begins == ends == 30
    assert instants == 1
    assert timestamps == sorted(timestamps)


def test_exports_stay_valid_across_device_reset(tmp_path):
    """A mid-campaign reset rebases the trace epoch; exports must not
    come out unparseable or (for Perfetto) non-monotonic because later
    events carry earlier timestamps."""
    path = str(tmp_path / "reset.rtrace")
    with telemetry(run_id="reset", clock=fake_clock()) as tel:
        with traces.recording(tel, path):
            for _ in range(5):
                with tel.span("job.execute", job="before"):
                    pass
            tel.on_device_reset()           # what Soc.reset() invokes
            with tel.span("job.execute", job="after"):
                pass
    with traces.TraceReader(path) as reader:
        events = [e for e in reader.events() if e["name"] == "job.execute"]
        # the rebase really happened: the post-reset span restarted the
        # timeline below where the pre-reset spans had advanced it
        assert events[5]["ts"] < events[4]["ts"]
        chrome = json.loads(traces.to_chrome(reader))
        assert len(chrome["traceEvents"]) >= 2
        blob = traces.to_perfetto(reader)
    timestamps = []
    for number, _, packet in decode_message(blob):
        fields = dict((n, v) for n, _, v in decode_message(packet))
        if 8 in fields:
            timestamps.append(fields[8])
    assert timestamps == sorted(timestamps)
    # the tracer's own bounded-buffer export sorts as well
    in_memory = tel.tracer.trace_events()
    data = [e for e in in_memory if e["ph"] != "M"]
    assert [e["ts"] for e in data] == sorted(e["ts"] for e in data)


# -- campaign integration ----------------------------------------------------

def _payloads(report):
    return canonical_json([record["payload"]
                           for record in sorted(report.records,
                                                key=lambda r: r["job_id"])])


def test_campaign_payloads_identical_with_trace_store(tmp_path):
    spec = CampaignSpec(count=2, cycles=CYCLES, seed=SEED,
                        ipc_resolution=256)
    bare = run_campaign(spec, workers=0)
    path = str(tmp_path / "campaign.rtrace")
    with telemetry(run_id="stored") as tel:
        with traces.recording(tel, path):
            stored = run_campaign(spec, workers=0)
    assert _payloads(bare) == _payloads(stored)

    summary = traces.summary_for(path)
    # the orchestrator's deterministic instants landed per customer
    assert len(summary["series"]) == 2
    for signals in summary["series"].values():
        assert "tc.ipc" in signals
        assert signals["tc.ipc"]["samples"] > 0
    assert summary["by_name"]["job.execute"]["count"] == 2


def test_cross_run_diff_surfaces_exactly_the_perturbed_customer(tmp_path):
    spec = CampaignSpec(count=3, cycles=CYCLES, seed=SEED,
                        ipc_resolution=256)
    jobs = [job.to_dict() for job in spec.build_jobs()]
    perturbed = [dict(j) for j in jobs]
    perturbed[1]["cycles"] = CYCLES * 2
    target = perturbed[1]["name"]

    segments = {}
    for label, job_list in (("before", jobs), ("after", perturbed)):
        path = str(tmp_path / f"{label}.rtrace")
        with telemetry(run_id=label) as tel:
            with traces.recording(tel, path):
                run_campaign(CampaignSpec(jobs=job_list), workers=0)
        segments[label] = path

    diff = traces.diff_summaries(traces.summary_for(segments["before"]),
                                 traces.summary_for(segments["after"]))
    assert diff.compared_jobs == 3
    assert diff.changed_jobs == [target]
    assert all(entry.job == target for entry in diff.changes)
    # doubling the budget doubles the sample count for that customer
    samples = [e for e in diff.changes
               if e.metric == "tc.ipc.samples"]
    assert samples and samples[0].after == 2 * samples[0].before


def test_identical_runs_diff_empty_end_to_end(tmp_path):
    spec = CampaignSpec(count=2, cycles=CYCLES, seed=SEED,
                        ipc_resolution=256)
    paths = []
    for label in ("a", "b"):
        path = str(tmp_path / f"{label}.rtrace")
        with telemetry(run_id=label) as tel:
            with traces.recording(tel, path):
                run_campaign(spec, workers=0)
        paths.append(path)
    diff = traces.diff_summaries(traces.summary_for(paths[0]),
                                 traces.summary_for(paths[1]))
    assert diff.changes == []
    assert diff.added_jobs == [] and diff.removed_jobs == []


def test_trace_store_metrics_count_flushes(tmp_path):
    path = str(tmp_path / "metrics.rtrace")
    with telemetry(clock=fake_clock()) as tel:
        with traces.recording(tel, path, block_events=4):
            for _ in range(10):
                tel.instant("tick")
        assert tel.registry.get("repro_trace_store_events_total").value() >= 8
        assert tel.registry.get("repro_trace_store_blocks_total").value() >= 2
        assert tel.registry.get("repro_trace_store_bytes_total").value() > 0


# -- batch-backend instrumentation -------------------------------------------

def test_batch_backend_spans_and_metrics(tmp_path):
    pytest.importorskip("numpy")
    from repro.fleet.spec import CampaignJob
    from repro.fleet.worker import run_shard

    jobs = [CampaignJob(name=f"c{i}", domain="engine", device="tc1797",
                        params={}, cycles=CYCLES, seed=SEED).to_dict()
            for i in range(3)]
    path = str(tmp_path / "batch.rtrace")
    with telemetry(run_id="batch") as tel:
        with traces.recording(tel, path):
            outcomes = run_shard(jobs, backend="batch")
        reg = tel.registry
        assert all(o["status"] == "ok" for o in outcomes)
        assert reg.get("repro_batch_lanes_total").value() == 3
        assert reg.get("repro_batch_strides_total").value() >= 1
        assert reg.get("repro_batch_sweep_cycles_total").value() == 3 * CYCLES
    summary = traces.summary_for(path)
    assert summary["by_name"]["batch.stride"]["count"] >= 1
    assert summary["by_name"]["batch.reconstruct"]["count"] == 3
    assert summary["by_name"]["job.execute"]["count"] == 3
    # lane-run job spans carry the backend tag
    result = traces.query_segment(path, traces.TraceQuery(
        names=("job.execute",)))
    assert all(e["args"]["backend"] == "batch" for e in result.events)


def test_batch_fallback_counts_reason(tmp_path):
    pytest.importorskip("numpy")
    from repro.fleet.spec import CampaignJob
    from repro.fleet.worker import run_shard

    jobs = [CampaignJob(name="flaky", domain="engine", device="tc1797",
                        params={}, cycles=CYCLES, seed=SEED,
                        fault="flaky:0").to_dict()]
    with telemetry() as tel:
        outcomes = run_shard(jobs, backend="batch")
        assert outcomes[0]["status"] == "ok"   # scalar fallback ran it
        reg = tel.registry
        assert reg.get("repro_batch_fallbacks_total").value('unsupported') == 1


# -- CLI ---------------------------------------------------------------------

def test_cli_traces_workflow(tmp_path, capsys):
    from repro.cli import main

    seg = write_synthetic(str(tmp_path / "cli.rtrace"), spans=60)
    assert main(["traces", "info", seg]) == 0
    out = capsys.readouterr().out
    assert "61 events" in out and "slowest spans:" in out

    assert main(["traces", "query", seg, "--begin", "100", "--end",
                 "200", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["events"]) == 11
    assert payload["blocks_scanned"] <= payload["blocks_total"]

    chrome = str(tmp_path / "cli.json")
    perfetto = str(tmp_path / "cli.pftrace")
    assert main(["traces", "export", seg, "--chrome", chrome,
                 "--perfetto", perfetto]) == 0
    capsys.readouterr()
    assert json.load(open(chrome))["traceEvents"]
    assert os.path.getsize(perfetto) > 0

    seg2 = str(tmp_path / "cli2.rtrace")
    assert main(["traces", "ingest", chrome, "-o", seg2]) == 0
    capsys.readouterr()
    assert main(["traces", "diff", seg, seg2, "--strict"]) == 0
    out = capsys.readouterr().out
    assert "0 regressions" in out

    missing = str(tmp_path / "missing.rtrace")
    assert main(["traces", "info", missing]) == 1


def test_cli_campaign_trace_store_flag(tmp_path, capsys):
    from repro.cli import main

    seg = str(tmp_path / "flag.rtrace")
    status = main(["campaign", "--count", "2", "--cycles", str(CYCLES),
                   "--workers", "0", "--trace-store", seg])
    assert status == 0
    capsys.readouterr()
    with traces.TraceReader(seg) as reader:
        assert reader.counts["events"] > 0
    assert traces.summary_for(seg)["by_name"]["job.execute"]["count"] == 2
