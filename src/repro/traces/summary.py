"""Streaming aggregation at ingest + the sealed summary sidecar.

Every event streamed into a :class:`~repro.traces.store.TraceWriter`
passes through a :class:`StreamingSummary` exactly once, so by the time
the segment closes the expensive whole-trace questions — duration
histograms per span name, gap/lost/degraded/stall totals per customer,
the N slowest spans, the per-(customer, signal) rate series that
cross-run diffing joins on — are already answered.  The summary is
persisted next to the segment as ``<segment>.summary.json`` and is the
only thing :mod:`repro.traces.diff` ever reads: diffing two multi-GB
runs is O(summary), not O(trace).

State is bounded: histograms are fixed buckets, the slowest-span set is
a size-``top_n`` heap, and the per-job/per-signal maps grow with the
campaign matrix, not with trace length.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Dict, List, Optional

from ..durable import atomic_write, seal_record, unseal_record
from ..errors import TraceStoreError

SUMMARY_FORMAT = "repro-trace-summary"
SUMMARY_SCHEMA = 2
SUMMARY_SUFFIX = ".summary.json"

#: span-duration histogram bounds in microseconds (log-spaced; the last
#: implicit bucket is +Inf), matching the registry's histogram idiom
DUR_BUCKETS_US = (10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7)


def _name_stat() -> Dict:
    return {"count": 0, "dur_sum_us": 0.0, "dur_min_us": None,
            "dur_max_us": 0.0, "buckets": [0] * (len(DUR_BUCKETS_US) + 1)}


def _job_stat() -> Dict:
    return {"spans": 0, "dur_sum_us": 0.0, "lost": 0, "gaps": 0,
            "degraded": 0, "stall_events": 0}


class StreamingSummary:
    """Incremental aggregates over one trace stream."""

    def __init__(self, top_n: int = 20) -> None:
        self.top_n = top_n
        self.events_total = 0
        self.spans_total = 0
        self.instants_total = 0
        self.buffer_overflows = 0
        self.gaps_total = 0
        self.lost_total = 0
        self.degraded_total = 0
        self.stall_events_total = 0
        self.by_name: Dict[str, Dict] = {}
        self.instants_by_name: Dict[str, int] = {}
        self.by_job: Dict[str, Dict] = {}
        #: job -> signal -> deterministic payload stats (fed by the
        #: orchestrator's ``job.profile`` instants); the diff join key
        self.series: Dict[str, Dict[str, Dict]] = {}
        self._slowest: List[tuple] = []      # min-heap of size <= top_n

    # -- ingest --------------------------------------------------------------
    def observe(self, name: str, ph: str, ts_us: float, dur_us: float,
                job: str, args: Optional[Dict]) -> None:
        self.events_total += 1
        if ph == "X":
            self.spans_total += 1
            stat = self.by_name.get(name)
            if stat is None:
                stat = self.by_name[name] = _name_stat()
            stat["count"] += 1
            stat["dur_sum_us"] += dur_us
            if stat["dur_min_us"] is None or dur_us < stat["dur_min_us"]:
                stat["dur_min_us"] = dur_us
            if dur_us > stat["dur_max_us"]:
                stat["dur_max_us"] = dur_us
            stat["buckets"][bisect_left(DUR_BUCKETS_US, dur_us)] += 1
            if job:
                jstat = self.by_job.get(job)
                if jstat is None:
                    jstat = self.by_job[job] = _job_stat()
                jstat["spans"] += 1
                jstat["dur_sum_us"] += dur_us
            entry = (dur_us, self.spans_total, name, ts_us, job)
            if len(self._slowest) < self.top_n:
                heapq.heappush(self._slowest, entry)
            elif entry > self._slowest[0]:
                heapq.heapreplace(self._slowest, entry)
            return
        self.instants_total += 1
        self.instants_by_name[name] = self.instants_by_name.get(name, 0) + 1
        args = args or {}
        if name == "gap.recorded":
            self.gaps_total += 1
            self.lost_total += int(args.get("lost") or 0)
            return
        if name == "trace.buffer_full":
            self.buffer_overflows += 1
            return
        if name == "job.profile" and job:
            self.series.setdefault(job, {})[str(args.get("signal", ""))] = {
                "mean_rate": args.get("mean_rate", 0.0),
                "samples": int(args.get("samples") or 0),
                "degraded": int(args.get("degraded") or 0),
            }
            return
        if name == "job.stats" and job:
            jstat = self.by_job.get(job)
            if jstat is None:
                jstat = self.by_job[job] = _job_stat()
            lost = int(args.get("lost") or 0)
            gaps = int(args.get("gaps") or 0)
            degraded = int(args.get("degraded") or 0)
            stalls = int(args.get("stall_events") or 0)
            jstat["lost"] += lost
            jstat["gaps"] += gaps
            jstat["degraded"] += degraded
            jstat["stall_events"] += stalls
            self.lost_total += lost
            self.degraded_total += degraded
            self.stall_events_total += stalls

    def observe_event(self, event: Dict, job: str = "") -> None:
        """Convenience for a Chrome-form event dict."""
        self.observe(event.get("name", ""), event.get("ph", "X"),
                     float(event.get("ts", 0.0)),
                     float(event.get("dur", 0.0)), job,
                     event.get("args"))

    # -- export --------------------------------------------------------------
    def slowest(self) -> List[Dict]:
        """The top-N slowest spans, slowest first."""
        return [{"name": name, "dur_us": round(dur, 3),
                 "ts_us": round(ts, 3), "job": job}
                for dur, _, name, ts, job in
                sorted(self._slowest, reverse=True)]

    def to_dict(self) -> Dict:
        by_name = {}
        for name in sorted(self.by_name):
            stat = self.by_name[name]
            by_name[name] = {
                "count": stat["count"],
                "dur_sum_us": round(stat["dur_sum_us"], 3),
                "dur_min_us": round(stat["dur_min_us"] or 0.0, 3),
                "dur_max_us": round(stat["dur_max_us"], 3),
                "dur_mean_us": round(
                    stat["dur_sum_us"] / max(1, stat["count"]), 3),
                "le": list(DUR_BUCKETS_US) + ["+Inf"],
                "buckets": list(stat["buckets"]),
            }
        by_job = {}
        for job in sorted(self.by_job):
            stat = self.by_job[job]
            by_job[job] = dict(stat, dur_sum_us=round(stat["dur_sum_us"], 3))
        return {
            "events": self.events_total,
            "spans": self.spans_total,
            "instants": self.instants_total,
            "buffer_overflows": self.buffer_overflows,
            "totals": {
                "gaps": self.gaps_total,
                "lost_messages": self.lost_total,
                "degraded_samples": self.degraded_total,
                "stall_events": self.stall_events_total,
            },
            "by_name": by_name,
            "instants_by_name": dict(sorted(self.instants_by_name.items())),
            "by_job": by_job,
            "series": {job: dict(sorted(signals.items()))
                       for job, signals in sorted(self.series.items())},
            "slowest": self.slowest(),
        }


# -- sidecar persistence -----------------------------------------------------
def sidecar_path(segment_path: str) -> str:
    return segment_path + SUMMARY_SUFFIX


def write_summary(path: str, body: Dict) -> str:
    """Atomically write a sealed summary document."""
    atomic_write(path, seal_record({"format": SUMMARY_FORMAT,
                                    "schema": SUMMARY_SCHEMA,
                                    "body": body}) + "\n")
    return path


def load_summary(path: str) -> Dict:
    """Load and validate a summary sidecar; returns the body dict."""
    try:
        with open(path, "rb") as handle:
            doc = unseal_record(handle.read())
    except OSError as exc:
        raise TraceStoreError(f"summary sidecar unreadable: {exc}")
    except ValueError as exc:
        raise TraceStoreError(f"summary sidecar rejected: {exc}")
    if doc.get("format") != SUMMARY_FORMAT:
        raise TraceStoreError(
            f"unexpected summary format {doc.get('format')!r}")
    if doc.get("schema") != SUMMARY_SCHEMA:
        raise TraceStoreError(
            f"unsupported summary schema {doc.get('schema')!r}")
    return doc.get("body")
