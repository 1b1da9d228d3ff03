"""Telemetry runtime: the process-wide slot every hook site guards on.

Mirrors the :mod:`repro.faults.injector` design exactly: a module-level
``_active`` slot that is ``None`` when telemetry is off, so every
instrumentation site in a hot path costs one attribute load and one
``is not None`` test.  Install a :class:`Telemetry` (usually via the
:func:`telemetry` context manager) and the same sites record spans,
instants, metrics, and structured events.

One :class:`Telemetry` bundles the three sinks:

* :class:`~repro.obs.registry.MetricsRegistry` — counters / gauges /
  histograms, exported as JSON or Prometheus text;
* :class:`~repro.obs.tracer.SpanTracer` — Chrome trace-event timeline;
* :class:`~repro.obs.events.EventLog` — run-id-correlated JSONL records.

Determinism contract: telemetry *reads* model state, never writes it,
never draws from any :class:`random.Random`, and never feeds timing
back.  Campaign payloads are byte-identical with telemetry on or off
(asserted in ``tests/test_obs.py``).
"""

from __future__ import annotations

import uuid
from contextlib import contextmanager
from typing import Callable, Dict, Optional, TextIO

from .events import EventLog
from .registry import MetricsRegistry
from .tracer import MAIN_PID, MAIN_TID, SpanTracer

#: histogram bounds for simulated-cycle span lengths
_CYCLE_BUCKETS = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


def _register_core_families(reg: MetricsRegistry) -> None:
    """Pre-register the cross-subsystem metric schema.

    Registered eagerly (not on first touch) so a metrics export always
    covers the kernel, pipeline, fault, and fleet families even when a
    run never exercised one of them — absent metrics and zero metrics
    are different observability statements.
    """
    # kernel / simulation
    reg.counter("repro_sim_cycles_total",
                "simulated cycles, by kernel mode", ("kernel",))
    reg.counter("repro_sim_advances_total",
                "simulator advance spans executed", ("kernel",))
    reg.histogram("repro_sim_span_cycles",
                  "cycles simulated per advance span",
                  buckets=_CYCLE_BUCKETS, per_run=True)
    reg.counter("repro_kernel_component_ticks_total",
                "component ticks executed", ("component",))
    reg.counter("repro_kernel_component_skipped_total",
                "component ticks skipped by quiescence scheduling",
                ("component",))
    reg.gauge("repro_kernel_cycles_per_sec",
              "simulation throughput of the last recorded run", ("kernel",))
    reg.gauge("repro_kernel_wall_seconds",
              "simulation wall clock of the last recorded run", ("kernel",))
    # trace pipeline
    reg.counter("repro_pipeline_messages_total",
                "trace messages generated, by message kind", ("kind",))
    reg.counter("repro_pipeline_bits_total",
                "trace bits generated, by message kind", ("kind",))
    reg.counter("repro_pipeline_lost_messages_total",
                "messages lost in the pipeline", ("source", "reason"))
    reg.counter("repro_trace_gaps_total",
                "lost-span gap records opened", ("source",))
    reg.counter("repro_dap_bits_transferred_total",
                "bits moved over the DAP wire")
    reg.gauge("repro_emem_fill_ratio",
              "EMEM trace-buffer fill ratio at last snapshot")
    reg.counter("repro_trigger_fires_total",
                "MCDS trigger rising edges", ("trigger",))
    # obs self-observation + trace store
    reg.counter("repro_obs_spans_dropped_total",
                "trace events rejected by the bounded in-memory buffer")
    reg.counter("repro_trace_store_events_total",
                "events streamed into columnar trace-store segments")
    reg.counter("repro_trace_store_blocks_total",
                "column blocks flushed to trace-store segments")
    reg.counter("repro_trace_store_bytes_total",
                "bytes appended to trace-store segments")
    # batch-lane backend
    reg.counter("repro_batch_lanes_total",
                "jobs executed as batch lanes")
    reg.counter("repro_batch_strides_total",
                "sweep strides executed by batch lanes")
    reg.counter("repro_batch_sweep_cycles_total",
                "cycles simulated inside batch lane sweeps")
    reg.counter("repro_batch_fallbacks_total",
                "batch-backend jobs re-run on the live measurement plane, "
                "by reason", ("reason",))
    # faults
    reg.counter("repro_faults_injected_total",
                "faults injected, by site", ("site",))
    reg.counter("repro_watchdog_trips_total",
                "simulation watchdog expirations", ("kind",))
    # fleet
    reg.counter("repro_fleet_jobs_total",
                "campaign job completions", ("status", "source"))
    reg.counter("repro_fleet_retries_total", "job retry attempts")
    reg.counter("repro_fleet_cache_lookups_total",
                "result-cache lookups", ("result",))
    reg.counter("repro_fleet_lost_messages_total",
                "trace messages lost across campaign payloads")
    reg.counter("repro_fleet_trace_gaps_total",
                "trace gaps across campaign payloads")
    reg.counter("repro_fleet_degraded_samples_total",
                "degraded samples across campaign payloads")
    reg.histogram("repro_fleet_job_wall_seconds",
                  "in-worker wall clock per executed job")
    reg.gauge("repro_fleet_worker_utilization",
              "busy / (wall x workers) of the last campaign")
    reg.gauge("repro_fleet_wall_seconds",
              "wall clock of the last campaign")
    # checkpoint / restore
    reg.counter("repro_checkpoint_writes_total",
                "checkpoint files written", ("kind",))
    reg.counter("repro_checkpoint_bytes_total",
                "bytes of checkpoint data written (bodies plus "
                "message-log segments)")
    reg.counter("repro_checkpoint_restores_total",
                "checkpoint restore attempts, by outcome", ("result",))
    # serve (the always-on campaign service)
    reg.gauge("repro_serve_queue_depth",
              "campaigns waiting in the admission queue", ("tenant",))
    reg.gauge("repro_serve_running_campaigns",
              "campaigns currently executing in a slot")
    reg.counter("repro_serve_campaigns_total",
                "campaign admission and terminal outcomes "
                "(admitted/rejected/completed/failed/evicted)",
                ("tenant", "outcome"))
    reg.counter("repro_serve_evictions_total",
                "campaigns preempted at a safe boundary to make room "
                "for higher-priority work")
    reg.gauge("repro_serve_sse_clients",
              "currently connected SSE event-stream clients")
    reg.gauge("repro_serve_tenant_tokens",
              "token-bucket fill level per tenant at last admission "
              "decision", ("tenant",))
    reg.counter("repro_serve_requests_total",
                "HTTP requests served, by route template and status",
                ("method", "route", "status"))
    reg.counter("repro_serve_results_streamed_total",
                "per-job result records pushed to event streams")
    # cluster (multi-node campaign execution over a shared directory)
    reg.gauge("repro_cluster_nodes_alive",
              "cluster nodes with a heartbeat younger than the liveness "
              "horizon at last status scan")
    reg.counter("repro_cluster_leases_total",
                "lease lifecycle events, by event "
                "(claimed/renewed/expired/fenced/released)", ("event",))
    reg.counter("repro_cluster_jobs_migrated_total",
                "jobs reclaimed from another holder's expired lease")
    reg.gauge("repro_cluster_heartbeat_age_seconds",
              "seconds since each node's last heartbeat at last status "
              "scan", ("node",))
    reg.counter("repro_cluster_jobs_total",
                "jobs this node committed to the shared store, by status",
                ("status",))
    # resilience (admission journal, crash recovery, circuit breaker)
    reg.counter("repro_resilience_journal_records_total",
                "write-ahead admission journal appends, by record op",
                ("op",))
    reg.counter("repro_resilience_recovered_total",
                "campaigns rebuilt from the journal at service start, "
                "by disposition (requeued/terminal/unrecoverable)",
                ("disposition",))
    reg.gauge("repro_resilience_breaker_state",
              "admission circuit breaker state "
              "(0 closed, 1 half-open, 2 open)")
    reg.gauge("repro_resilience_breaker_failure_rate",
              "campaign failure rate over the breaker's sliding window")
    reg.counter("repro_resilience_breaker_transitions_total",
                "circuit breaker state transitions, by new state", ("to",))
    reg.counter("repro_resilience_shed_total",
                "admissions shed with 503 while the breaker was not closed")
    reg.counter("repro_resilience_idempotent_replays_total",
                "duplicate submissions answered with the original campaign")
    reg.counter("repro_resilience_deadline_exceeded_total",
                "campaigns expired at their wall-clock deadline, by the "
                "phase they were in (queued/running)", ("phase",))


class Telemetry:
    """One run's registry + tracer + event log, ready to install."""

    def __init__(self, run_id: Optional[str] = None,
                 clock: Optional[Callable[[], float]] = None,
                 stream: Optional[TextIO] = None) -> None:
        if run_id is None:
            run_id = uuid.uuid4().hex[:12]
        self.run_id = run_id
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer(clock)
        self.events = EventLog(run_id, clock, stream)
        _register_core_families(self.registry)
        self.tracer.on_drop = self._note_dropped
        self._previous: Optional["Telemetry"] = None

    def _note_dropped(self, count: int) -> None:
        self.registry.get("repro_obs_spans_dropped_total").inc(count)

    # -- sugar over the three sinks ------------------------------------------
    def span(self, name: str, cat: str = "repro", pid: int = MAIN_PID,
             tid: int = MAIN_TID, **args):
        return self.tracer.span(name, cat, pid, tid, args or None)

    def instant(self, name: str, cat: str = "repro", pid: int = MAIN_PID,
                tid: int = MAIN_TID, **args) -> None:
        self.tracer.instant(name, cat, pid, tid, args or None)

    def emit(self, event: str, **fields) -> None:
        self.events.emit(event, **fields)

    # -- hook-site helpers (called only when the slot is non-None) -----------
    def sim_advance(self, kernel: str, begin_cycle: int, end_cycle: int,
                    ts_us: float) -> None:
        cycles = end_cycle - begin_cycle
        self.tracer.complete(
            "sim.advance", ts_us, self.tracer.now_us() - ts_us, "sim",
            args={"begin_cycle": begin_cycle, "end_cycle": end_cycle,
                  "cycles": cycles, "kernel": kernel,
                  "span_id": self.tracer.next_span_id()})
        reg = self.registry
        reg.get("repro_sim_cycles_total").labels(kernel).inc(cycles)
        reg.get("repro_sim_advances_total").labels(kernel).inc()
        reg.get("repro_sim_span_cycles").observe(cycles)

    def gap_recorded(self, source: str, kind: str, cycle: int,
                     lost: int) -> None:
        self.instant("gap.recorded", cat="pipeline", source=source,
                     kind=kind, cycle=cycle, lost=lost)
        self.registry.get("repro_trace_gaps_total").labels(source).inc()
        self.registry.get("repro_pipeline_lost_messages_total") \
            .labels(source, kind).inc(lost)

    def fault_injected(self, site: str, hit: int, scope: str) -> None:
        self.instant("fault.injected", cat="faults", site=site, hit=hit,
                     scope=scope)
        self.registry.get("repro_faults_injected_total").labels(site).inc()
        self.events.emit("fault.injected", site=site, hit=hit, scope=scope)

    def watchdog_trip(self, kind: str, cycle: int) -> None:
        self.instant("watchdog.trip", cat="faults", kind=kind, cycle=cycle)
        self.registry.get("repro_watchdog_trips_total").labels(kind).inc()
        self.events.emit("watchdog.trip", kind=kind, cycle=cycle)

    def cache_lookup(self, result: str, digest: str) -> None:
        self.instant(f"cache.{result}", cat="fleet", digest=digest)
        self.registry.get("repro_fleet_cache_lookups_total") \
            .labels(result).inc()

    def trigger_fired(self, trigger: str, cycle: int) -> None:
        self.instant("trigger.fire", cat="mcds", trigger=trigger,
                     cycle=cycle)
        self.registry.get("repro_trigger_fires_total").labels(trigger).inc()

    def checkpoint_written(self, path: str, size: int, cycle: int,
                           kind: str = "sim",
                           damaged: Optional[str] = None) -> None:
        self.instant("checkpoint.written", cat="checkpoint", path=path,
                     size=size, cycle=cycle, kind=kind,
                     damaged=damaged or "")
        reg = self.registry
        reg.get("repro_checkpoint_writes_total").labels(kind).inc()
        reg.get("repro_checkpoint_bytes_total").inc(size)
        self.events.emit("checkpoint.written", path=path, size=size,
                         cycle=cycle, kind=kind, damaged=damaged)

    def checkpoint_restored(self, result: str, path: str,
                            cycle: Optional[int] = None,
                            error: Optional[str] = None) -> None:
        self.instant("checkpoint.restored", cat="checkpoint", result=result,
                     path=path, cycle=cycle, error=error or "")
        self.registry.get("repro_checkpoint_restores_total") \
            .labels(result).inc()
        self.events.emit("checkpoint.restored", result=result, path=path,
                         cycle=cycle, error=error)

    def on_device_reset(self) -> None:
        """``Soc.reset`` hook: a reset begins a new logical run.

        Span ids restart from 1, per-run histograms zero their buckets,
        and the trace timeline rebases to the current clock reading —
        so running the same workload again after a reset produces an
        identical trace (given a deterministic clock), instead of one
        offset by the first run's ids and timestamps.
        """
        self.tracer.reset_ids()
        self.tracer.rebase()
        self.registry.reset_per_run()
        self.events.emit("device.reset")

    # -- output --------------------------------------------------------------
    def write_outputs(self, trace_out: Optional[str] = None,
                      metrics_out: Optional[str] = None,
                      events_out: Optional[str] = None) -> Dict[str, str]:
        """Write any of the three export artifacts; returns written paths."""
        written: Dict[str, str] = {}
        if trace_out:
            with open(trace_out, "w") as handle:
                handle.write(self.tracer.to_chrome(indent=None))
                handle.write("\n")
            written["trace"] = trace_out
        if metrics_out:
            with open(metrics_out, "w") as handle:
                handle.write(self.registry.to_prometheus())
            written["metrics"] = metrics_out
        if events_out:
            self.events.write(events_out)
            written["events"] = events_out
        return written

    # -- installation (same pattern as FaultInjector) ------------------------
    def install(self) -> "Telemetry":
        global _active
        self._previous = _active
        _active = self
        return self

    def uninstall(self) -> None:
        global _active
        _active = self._previous
        self._previous = None

    def __enter__(self) -> "Telemetry":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


#: the process-wide telemetry slot; ``None`` means every hook site is a
#: single-attribute-check no-op
_active: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The currently-installed telemetry, if any."""
    return _active


@contextmanager
def telemetry(run_id: Optional[str] = None,
              clock: Optional[Callable[[], float]] = None,
              stream: Optional[TextIO] = None):
    """Install a fresh :class:`Telemetry` for the enclosed block::

        with telemetry(run_id="demo") as tel:
            report = run_campaign(jobs, workers=0)
        tel.write_outputs("trace.json", "metrics.prom", "events.jsonl")
    """
    tel = Telemetry(run_id, clock, stream)
    tel.install()
    try:
        yield tel
    finally:
        tel.uninstall()
