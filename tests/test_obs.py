"""Telemetry layer: registry export formats, tracer determinism, hooks.

The acceptance properties of ``repro.obs``:

* the Chrome trace export is valid trace-event JSON — metadata first,
  timestamps monotonic, pid/tid lanes named through the metadata events;
* the Prometheus text export parses line-by-line, escapes label values,
  and renders histograms as cumulative buckets with ``+Inf``/sum/count;
* installing telemetry never changes simulation results: a campaign's
  payloads and aggregate are byte-identical with telemetry on or off;
* ``Soc.reset`` reseeds span ids and rebases the timeline, so repeated
  runs in one process produce identical traces under a fake clock;
* every hook site (kernel advance, gap, fault, watchdog, trigger, cache,
  fleet) lands in the registry and on the timeline.
"""

import itertools
import json
import multiprocessing
import re

import pytest

from repro.errors import ConfigurationError, WatchdogExpired
from repro.faults import FaultInjector, FaultPlan, SimulationWatchdog
from repro.fleet import CampaignRunner, build_matrix
from repro.obs import (EventLog, MetricsRegistry, SpanTracer, Telemetry,
                       active, bridge, escape_label_value, telemetry)
from repro.soc.config import tc1797_config
from repro.soc.device import Soc
from repro.workloads import CustomerGenerator, EngineControlScenario

from tests.helpers import make_loop_program


def fake_clock(step=0.001):
    """Deterministic clock: 0, step, 2*step, ... seconds."""
    counter = itertools.count()
    return lambda: next(counter) * step


# --- metrics registry -------------------------------------------------------
def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    jobs = reg.counter("jobs_total", "jobs", ("status",))
    jobs.labels("ok").inc()
    jobs.labels("ok").inc(2)
    jobs.labels(status="error").inc()
    assert jobs.labels("ok").value == 3
    assert jobs.labels("error").value == 1
    util = reg.gauge("util", "utilization")
    util.set(0.5)
    assert util.labels().value == 0.5
    hist = reg.histogram("wall", "seconds", buckets=(1.0, 10.0))
    for v in (0.5, 5.0, 50.0):
        hist.observe(v)
    assert hist.labels().count == 3
    assert hist.labels().sum == pytest.approx(55.5)


def test_counter_rejects_decrement_and_bad_names():
    reg = MetricsRegistry()
    counter = reg.counter("c_total", "help")
    with pytest.raises(ConfigurationError):
        counter.inc(-1)
    with pytest.raises(ConfigurationError):
        reg.counter("bad name", "help")
    with pytest.raises(ConfigurationError):
        reg.counter("ok_total", "help", ("bad-label",))


def test_reregistration_same_schema_is_idempotent():
    reg = MetricsRegistry()
    first = reg.counter("x_total", "help", ("a",))
    again = reg.counter("x_total", "help", ("a",))
    assert first is again
    with pytest.raises(ConfigurationError):
        reg.counter("x_total", "help", ("b",))      # different labels
    with pytest.raises(ConfigurationError):
        reg.gauge("x_total", "help", ("a",))        # different kind


PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"                      # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'      # first label
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})?' # more labels
    r" [^ ]+$")                                       # value


def test_prometheus_export_parses_line_by_line():
    reg = MetricsRegistry()
    reg.counter("repro_jobs_total", "completed jobs",
                ("status",)).labels("ok").inc(3)
    reg.gauge("repro_util", "utilization").set(0.25)
    hist = reg.histogram("repro_wall_seconds", "wall", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(5.0)
    text = reg.to_prometheus()
    families = set()
    for line in text.splitlines():
        if line.startswith("# HELP") or line.startswith("# TYPE"):
            families.add(line.split()[2])
            continue
        assert PROM_LINE.match(line), f"unparseable line: {line!r}"
    assert {"repro_jobs_total", "repro_util",
            "repro_wall_seconds"} <= families
    # histogram renders cumulative buckets, +Inf, sum and count
    assert 'repro_wall_seconds_bucket{le="0.1"} 1' in text
    assert 'repro_wall_seconds_bucket{le="1"} 1' in text
    assert 'repro_wall_seconds_bucket{le="+Inf"} 2' in text
    assert "repro_wall_seconds_sum 5.05" in text
    assert "repro_wall_seconds_count 2" in text


def test_prometheus_label_escaping():
    assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
    reg = MetricsRegistry()
    reg.counter("odd_total", "h", ("site",)) \
        .labels('quo"te\\slash\nline').inc()
    text = reg.to_prometheus()
    line = [l for l in text.splitlines() if l.startswith("odd_total{")][0]
    assert line == 'odd_total{site="quo\\"te\\\\slash\\nline"} 1'
    assert PROM_LINE.match(line)


def test_registry_json_export_round_trips():
    reg = MetricsRegistry()
    reg.counter("a_total", "h", ("k",)).labels("v").inc(7)
    payload = json.loads(reg.to_json_text())
    family = payload["a_total"]
    assert family["type"] == "counter"
    assert family["series"] == [{"labels": {"k": "v"}, "value": 7}]


def test_per_run_families_reset():
    reg = MetricsRegistry()
    hist = reg.histogram("spans", "h", buckets=(10.0,), per_run=True)
    keep = reg.counter("keep_total", "h")
    hist.observe(5.0)
    keep.inc()
    reg.reset_per_run()
    assert hist.labels().count == 0 and hist.labels().sum == 0.0
    assert keep.labels().value == 1


# --- span tracer ------------------------------------------------------------
def test_chrome_trace_is_valid_and_monotonic():
    tracer = SpanTracer(clock=fake_clock())
    tracer.set_process(7, "worker 7")
    tracer.set_thread(7, 1, "shard")
    with tracer.span("outer", cat="test"):
        tracer.instant("tick", cat="test")
    tracer.complete("job", ts_us=50.0, dur_us=10.0, pid=7, tid=1)
    body = json.loads(tracer.to_chrome())
    events = body["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    rest = [e for e in events if e["ph"] != "M"]
    # metadata first, then events sorted by timestamp
    assert events[:len(meta)] == meta
    ts = [e["ts"] for e in rest]
    assert ts == sorted(ts)
    assert all(e["ph"] in ("X", "i") for e in rest)
    assert all(e["dur"] >= 0 for e in rest if e["ph"] == "X")
    # pid/tid round trip through the metadata name events
    names = {(e["pid"], e["name"], e["args"]["name"]) for e in meta}
    assert (7, "process_name", "worker 7") in names
    assert (0, "process_name", "repro") in names
    by_thread = {(e["pid"], e["tid"]): e["args"]["name"]
                 for e in meta if e["name"] == "thread_name"}
    assert by_thread[(7, 1)] == "shard"
    used_lanes = {(e["pid"], e["tid"]) for e in rest}
    assert used_lanes <= set(by_thread)


def test_tracer_span_ids_and_reset():
    tracer = SpanTracer(clock=fake_clock())
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    ids = [e["args"]["span_id"] for e in tracer.events]
    assert ids == [1, 2]
    tracer.reset_ids()
    with tracer.span("c"):
        pass
    assert tracer.events[-1]["args"]["span_id"] == 1


def test_tracer_buffer_bound():
    tracer = SpanTracer(clock=fake_clock(), max_events=2)
    for _ in range(5):
        tracer.instant("x")
    # the bounded buffer keeps max_events real events plus exactly one
    # trace.buffer_full marker so an exported trace says it was truncated
    assert len(tracer) == 3
    assert tracer.dropped_events == 3
    markers = [e for e in tracer.events if e["name"] == "trace.buffer_full"]
    assert len(markers) == 1
    assert markers[0]["args"] == {"max_events": 2}


def test_tracer_drop_callback_counts():
    dropped = []
    tracer = SpanTracer(clock=fake_clock(), max_events=1)
    tracer.on_drop = dropped.append
    for _ in range(4):
        tracer.instant("x")
    assert sum(dropped) == 3 == tracer.dropped_events


# --- event log --------------------------------------------------------------
def test_event_log_correlation_and_jsonl():
    log = EventLog("run42", clock=fake_clock())
    log.emit("campaign.start", jobs=3)
    log.emit("job.done", job_id="j1", status="ok")
    lines = log.to_jsonl().splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["seq"] for r in records] == [0, 1]
    assert all(r["run_id"] == "run42" for r in records)
    assert records[1]["event"] == "job.done"
    assert log.by_event("job.done")[0]["job_id"] == "j1"


def test_event_log_streams_live():
    import io
    stream = io.StringIO()
    log = EventLog("r", clock=fake_clock(), stream=stream)
    log.emit("hello", n=1)
    assert json.loads(stream.getvalue())["event"] == "hello"


# --- runtime slot + hooks ---------------------------------------------------
def test_slot_is_none_by_default_and_nests():
    assert active() is None
    with telemetry(run_id="outer") as outer:
        assert active() is outer
        with telemetry(run_id="inner") as inner:
            assert active() is inner
        assert active() is outer
    assert active() is None


def test_sim_advance_hook_records_spans_and_metrics():
    soc = Soc(tc1797_config(), seed=61)
    soc.load_program(make_loop_program())
    with telemetry(clock=fake_clock()) as tel:
        soc.run(2000)
    spans = [e for e in tel.tracer.events if e["name"] == "sim.advance"]
    assert spans, "no advance spans recorded"
    assert sum(s["args"]["cycles"] for s in spans) == 2000
    kernel = spans[0]["args"]["kernel"]
    reg = tel.registry
    assert reg.get("repro_sim_cycles_total").labels(kernel).value == 2000
    assert reg.get("repro_sim_advances_total").labels(kernel).value \
        == len(spans)
    assert reg.get("repro_sim_span_cycles").labels().count == len(spans)


def test_soc_reset_produces_identical_traces():
    """Satellite: reset reseeds span ids/buckets so re-runs trace equal."""
    soc = Soc(tc1797_config(), seed=61)
    soc.load_program(make_loop_program())
    with telemetry(clock=fake_clock()) as tel:
        soc.run(1500)
        first = tel.tracer.drain()
        hist_first = tel.registry.get("repro_sim_span_cycles") \
            .labels().count
        soc.reset()
        soc.run(1500)
        second = tel.tracer.drain()
        hist_second = tel.registry.get("repro_sim_span_cycles") \
            .labels().count
    assert first == second
    assert hist_first == hist_second
    assert tel.events.by_event("device.reset")


def test_fault_and_gap_hooks_record_instants():
    from repro.core.profiling import ProfilingSession, spec
    plan = FaultPlan(seed=7, rules=(
        {"site": "emem.drop", "probability": 1.0, "max_faults": 3},))
    device = EngineControlScenario().build(tc1797_config(), {}, seed=61)
    session = ProfilingSession(device, [spec.ipc(resolution=256)])
    with telemetry(clock=fake_clock()) as tel:
        with FaultInjector(plan, scope="test"):
            session.run(30_000)
    reg = tel.registry
    injected = reg.get("repro_faults_injected_total") \
        .labels("emem.drop").value
    assert injected == 3
    assert len(tel.events.by_event("fault.injected")) == 3
    fault_instants = [e for e in tel.tracer.events
                      if e["name"] == "fault.injected"]
    assert len(fault_instants) == 3
    # dropped messages open gaps, which land as instants + counters
    assert reg.get("repro_trace_gaps_total").labels("emem").value >= 1
    assert any(e["name"] == "gap.recorded" for e in tel.tracer.events)


def test_watchdog_trip_hook():
    soc = Soc(tc1797_config(), seed=61)
    soc.load_program(make_loop_program())
    watchdog = SimulationWatchdog(max_cycles=500)
    with telemetry(clock=fake_clock()) as tel:
        with pytest.raises(WatchdogExpired):
            with watchdog.guard(soc):
                soc.run(10_000)
    assert tel.registry.get("repro_watchdog_trips_total") \
        .labels("cycle").value == 1
    assert tel.events.by_event("watchdog.trip")[0]["kind"] == "cycle"


# --- bridge adapters --------------------------------------------------------
def test_bridge_folds_kernel_stats_without_changing_them():
    soc = Soc(tc1797_config(), seed=61)
    soc.load_program(make_loop_program())
    soc.run(2000)
    stats = soc.sim.kernel_stats()
    snapshot = json.dumps(stats, sort_keys=True, default=str)
    reg = MetricsRegistry()
    bridge.record_kernel_stats(reg, stats, kernel="quiescent")
    assert json.dumps(stats, sort_keys=True, default=str) == snapshot
    assert reg.get("repro_kernel_cycles_per_sec") \
        .labels("quiescent").value == stats["cycles_per_sec"]
    ticks = reg.get("repro_kernel_component_ticks_total")
    for entry in stats["components"]:
        assert ticks.labels(entry["name"]).value == entry["ticks"]


def test_bridge_folds_device_stats():
    from repro.core.profiling import ProfilingSession, spec
    device = EngineControlScenario().build(tc1797_config(), {}, seed=61)
    ProfilingSession(device, [spec.ipc(resolution=256)]).run(20_000)
    reg = MetricsRegistry()
    bridge.record_device_stats(reg, device)
    assert device.mcds.messages_by_kind     # the fold saw real traffic
    emem_stats = device.emem.stats()
    assert reg.get("repro_emem_fill_ratio").labels().value \
        == emem_stats["fill_ratio"]
    assert reg.get("repro_dap_bits_transferred_total").labels().value \
        == device.dap.stats()["bits_transferred"]
    messages = reg.get("repro_pipeline_messages_total")
    for kind, count in device.mcds.messages_by_kind.items():
        assert messages.labels(kind).value == count


# --- campaign determinism + fleet hooks -------------------------------------
CYCLES = 12_000


def make_jobs(count=2):
    customers = CustomerGenerator(seed=42).generate(count)
    return build_matrix(customers, cycle_budgets=(CYCLES,), seed=9)


def read_store(path):
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    for record in records:
        record.pop("wall_s", None)    # the only wall-clock field
        record.pop("_crc32", None)    # seals the record incl. wall_s
    return records


def test_campaign_payloads_byte_identical_on_off(tmp_path):
    """The determinism contract: telemetry reads, never perturbs."""
    report_off = CampaignRunner(
        make_jobs(), workers=0,
        campaign_dir=str(tmp_path / "off")).run()
    with telemetry(clock=fake_clock()):
        report_on = CampaignRunner(
            make_jobs(), workers=0,
            campaign_dir=str(tmp_path / "on")).run()
    with open(report_off.aggregate_path, "rb") as handle:
        agg_off = handle.read()
    with open(report_on.aggregate_path, "rb") as handle:
        agg_on = handle.read()
    assert agg_off == agg_on
    assert read_store(report_off.store_path) \
        == read_store(report_on.store_path)


def test_campaign_telemetry_covers_fleet(tmp_path):
    with telemetry(clock=fake_clock()) as tel:
        report = CampaignRunner(
            make_jobs(), workers=0,
            cache_dir=str(tmp_path / "cache")).run()
        # warm re-run: cache hits show up as lookups + job source labels
        CampaignRunner(make_jobs(), workers=0,
                       cache_dir=str(tmp_path / "cache")).run()
    reg = tel.registry
    lookups = reg.get("repro_fleet_cache_lookups_total")
    assert lookups.labels("miss").value == 2
    assert lookups.labels("hit").value == 2
    jobs = reg.get("repro_fleet_jobs_total")
    assert jobs.labels("ok", "executed").value == 2
    assert jobs.labels("ok", "cache").value == 2
    assert reg.get("repro_fleet_job_wall_seconds").labels().count == 2
    names = {e["name"] for e in tel.tracer.events}
    assert {"campaign", "job.execute", "sim.advance",
            "pipeline.decode"} <= names
    events = {r["event"] for r in tel.events.records}
    assert {"campaign.start", "job.done", "campaign.end"} <= events
    starts = tel.events.by_event("campaign.start")
    assert len(starts) == 2 and report.metrics.executed == 2


def _parent_view(tel):
    """What a pooled campaign's parent records: span and event names,
    and its job counts."""
    spans = sorted(e["name"] for e in tel.tracer.events if e["ph"] != "M")
    events = sorted(r["event"] for r in tel.events.records)
    jobs = tel.registry.get("repro_fleet_jobs_total")
    return spans, events, jobs.labels("ok", "executed").value


def _pooled_campaign(tmp_path, name, monkeypatch):
    """A two-worker campaign under telemetry and a fault injector; each
    worker notes which of the two slots it ran under before its job."""
    from repro.faults import injector
    from repro.fleet import orchestrator
    from repro.obs import runtime
    notes = tmp_path / f"{name}-slots"
    notes.mkdir()
    run_shard = orchestrator.run_shard

    def probe(jobs, *args):
        (notes / jobs[0]["name"]).write_text(json.dumps(
            [runtime._active is not None, injector._active is not None]))
        return run_shard(jobs, *args)

    monkeypatch.setattr(orchestrator, "run_shard", probe)
    with telemetry(clock=fake_clock()) as tel, \
            FaultInjector(FaultPlan(rules=())):
        report = CampaignRunner(make_jobs(), workers=2,
                                campaign_dir=str(tmp_path / name)).run()
    monkeypatch.setattr(orchestrator, "run_shard", run_shard)
    assert len(report.ok_records) == 2
    slots = [json.loads(path.read_text()) for path in notes.iterdir()]
    assert len(slots) == 2
    return tel, slots


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only a forked pool worker inherits the slots")
def test_pool_workers_drop_inherited_telemetry(tmp_path, monkeypatch):
    """A forked pool worker empties the telemetry and fault-injector
    slots it inherits: nobody reads what it would record there.  The
    parent's own spans, events and counts stay as they were."""
    import gc

    from repro.fleet import orchestrator
    tel, slots = _pooled_campaign(tmp_path, "clean", monkeypatch)
    assert slots == [[False, False]] * 2
    # the same campaign with workers that keep what they inherit
    monkeypatch.setattr(orchestrator, "start_forked_worker", gc.freeze)
    kept, slots = _pooled_campaign(tmp_path, "inherited", monkeypatch)
    assert slots == [[True, True]] * 2
    assert _parent_view(tel) == _parent_view(kept)
    spans, _, executed = _parent_view(tel)
    assert executed == 2 and spans.count("job.execute") == 2


def test_campaign_metrics_degradation_counts_from_payloads():
    from repro.fleet.metrics import CampaignMetrics
    metrics = CampaignMetrics()
    metrics.note_payload({"profile": {
        "lost_messages": 4,
        "gaps": [[0, 10, 4, "emem", "wrap"]],
        "parameters": {"tc.ipc": {"degraded": [1, 2]},
                       "tc.icache": {}},
    }})
    metrics.note_payload({"profile": {"lost_messages": 0,
                                      "parameters": {}}})
    assert metrics.lost_messages == 4
    assert metrics.trace_gaps == 1
    assert metrics.degraded_samples == 2
    assert "4 lost msgs / 1 gaps / 2 degraded samples" \
        in metrics.summary_table()


def test_write_outputs(tmp_path):
    with telemetry(run_id="files", clock=fake_clock()) as tel:
        with tel.span("work"):
            tel.emit("step", n=1)
    written = tel.write_outputs(
        str(tmp_path / "trace.json"), str(tmp_path / "metrics.prom"),
        str(tmp_path / "events.jsonl"))
    assert set(written) == {"trace", "metrics", "events"}
    body = json.loads((tmp_path / "trace.json").read_text())
    assert body["traceEvents"]
    prom = (tmp_path / "metrics.prom").read_text()
    assert "# TYPE repro_sim_cycles_total counter" in prom
    record = json.loads(
        (tmp_path / "events.jsonl").read_text().splitlines()[0])
    assert record["run_id"] == "files"
