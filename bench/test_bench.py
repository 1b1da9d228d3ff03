"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Not part of the tier-1 suite (``testpaths`` is ``tests/``).
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import Span, Tracer, by_name, self_times  # noqa: E402
from stats import quartile_spread, tail_percentile  # noqa: E402
from workloads import (END_TO_END, METRICS, WORKLOAD_NAMES, Workload,  # noqa: E402
                       benchmark_document, reported)

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- order statistics ------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (8, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (200, 95.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    values = [float(i) for i in range(n)]
    found = tail_percentile(values)
    if expected is None:
        assert found is None
        return
    p, value = found
    assert p == expected
    assert sum(1 for v in values if v > value) >= 10


def test_quartile_spread_is_relative_to_median():
    assert quartile_spread([10.0] * 10) == 0.0
    # quartiles 2 and 6 around a median of 4
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx(1.0)


# -- spans -------------------------------------------------------------------------
def _span(name, start, end, parent=None):
    span = Span(name, start, parent)
    span.end = end
    return span


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
        _span("b.inner", 5.0, 6.0, parent=3),
        _span("b.inner", 5.5, 7.0, parent=3),    # overlaps its sibling
    ]
    assert self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 4.0, 3.0 - 1.0, 1.0, 4.0 - 2.0, 1.0, 1.5])
    assert by_name(spans)["b.inner"] == [pytest.approx(2.5), 2]


def test_wrap_records_nesting_errors_and_notes():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    traced_inner = tracer.wrap("inner", inner, note=lambda r, x: {"r": r})
    with tracer.span("outer"):
        assert traced_inner(2) == 4
        with pytest.raises(ValueError):
            traced_inner(-1)
    outer, ok, failed = tracer.spans
    assert (outer.parent, ok.parent, failed.parent) == (None, 0, 0)
    assert ok.args == {"r": 4}
    assert failed.args == {"error": "ValueError"}


def test_patch_restores_module_and_class_attributes():
    class Base:
        def run(self):
            return "base"

    class Child(Base):
        pass

    tracer = Tracer()
    tracer.patch(Child, "run", "child.run")
    assert Child().run() == "base"
    assert "run" in vars(Child)
    tracer.unpatch_all()
    assert "run" not in vars(Child)
    assert [s.name for s in tracer.spans] == ["child.run"]


# -- BENCHMARK.json and the command's registry ------------------------------------
def _document():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_registry():
    document = _document()
    assert document == benchmark_document(document["run_seconds"])
    names = [m["name"] for m in document["end_to_end"] +
             document["per_layer"]]
    names += [w["name"] for w in document["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in document["workloads"]] == list(WORKLOAD_NAMES)
    assert all(len(w["why"]) <= 200 for w in document["workloads"])


def test_bounds_and_setup_metric():
    bounds = {m.name: m.bound for m in END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert max(bounds.values()) == bounds["setup_s"]
    setup = [m for m in END_TO_END if m.name == "setup_s"][0]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert all(m.better in ("lower", "higher") for m in METRICS)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Both phases of a two-job pool campaign, as a child runs them."""
    import phases
    tiny = Workload("tiny", "test", "pool", {"engine": 1, "rtos": 1},
                    {"cycles": 3_000})
    jobs = phases.build_jobs(tiny, seed=5)
    assert sorted(job.domain for job in jobs) == ["engine", "rtos"]
    bench = phases.Bench(tiny, jobs, str(tmp_path_factory.mktemp("work")))
    timed, raw = bench.timed(0.0)
    layers, tracer = bench.traced()
    return bench, timed, raw, layers, tracer


def test_command_emits_every_listed_metric(tiny_run):
    bench, timed, raw, layers, _ = tiny_run
    assert not bench.problems
    assert len(bench.digests) == 1
    assert len(raw["cold"]) == timed["campaign_s_p50"][1] >= 3
    listed = {m["name"] for m in _document()["end_to_end"]} - {"setup_s"}
    assert listed <= set(timed)
    listed = {m["name"] for m in _document()["per_layer"]}
    assert listed <= set(layers)
    emitted = set(timed) | set(layers) | {"setup_s"}
    assert emitted <= {m.name for m in METRICS}
    for name, (value, n) in {**timed, **layers}.items():
        assert isinstance(value, (int, float)) and n >= 0, name
    assert {m.name for m in reported("per_layer")} <= set(layers)
    assert layers["trace.coverage"][0] > 0.5
    assert layers["fleet.cache.hit_ratio"][0] == 0.5


def test_trace_file_loads_through_the_trace_store(tiny_run, tmp_path):
    from repro.traces import ingest_chrome
    tracer = tiny_run[4]
    path = tracer.chrome(str(tmp_path / "trace.json"))
    writer = ingest_chrome(path, str(tmp_path / "trace.rtrace"))
    assert writer.spans_written == len(tracer.spans) > 0
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    parents = {e["args"]["id"]: e["args"].get("parent") for e in events}
    assert sum(1 for parent in parents.values() if parent is None) == 2
