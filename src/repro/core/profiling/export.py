"""Profile export: CSV and JSON serialisation of measurement results.

Calibration/measurement tool chains ingest rate series for display and
archival (the MCD/ASAM world the real ED tooling lives in); these
exporters produce the equivalent interchange artifacts.

The JSON form is a lossless round trip: :func:`result_from_json` rebuilds
a live :class:`ProfileResult` (specs included), and re-exporting the
loaded result reproduces the original text byte-for-byte.  That stability
is what lets the fleet campaign cache key payloads by content hash.
:func:`result_to_dict` and :func:`result_from_dict` are the same format as
plain data, for callers (the fleet worker, the batch lanes, campaign
aggregation) that keep the profile inside a larger JSON document.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, List, Optional

from ...errors import FormatError
from ...mcds.messages import Gap
from .session import ProfileResult, SeriesData
from .spec import ParameterSpec


def result_to_dict(result: ProfileResult,
                   include_series: bool = True) -> Dict:
    """The profile as plain data: the one builder of the export format.

    Only dicts, lists, strings, ints and floats, freshly built (nothing
    shared with ``result``), so the dict equals
    ``json.loads(result_to_json(result, compact=True))`` and any sorted
    JSON rendering of it reproduces the export bytes.
    """
    payload: Dict = {
        "cycles_run": result.cycles_run,
        "frequency_mhz": result.frequency_mhz,
        "trace_bits": result.trace_bits,
        "bandwidth_mbps": result.bandwidth_mbps(),
        "lost_messages": result.lost_messages,
        "parameters": {},
    }
    if result.gaps:
        # emitted only for degraded captures, so clean exports stay
        # byte-identical to the pre-gap-accounting format
        payload["gaps"] = [gap.to_list() for gap in result.gaps]
    for name, data in result.series.items():
        entry: Dict = {
            "events": list(data.spec.events),
            "basis": data.spec.basis,
            "resolution": data.spec.resolution,
            "samples": len(data),
            "mean_rate": data.mean_rate(),
        }
        if include_series:
            entry["cycles"] = list(data.cycle_list())
            entry["values"] = list(data.value_list())
            if data.degraded_count:
                entry["degraded"] = data.degraded_indices()
        payload["parameters"][name] = entry
    return payload


def result_to_json(result: ProfileResult, include_series: bool = True,
                   compact: bool = False) -> str:
    """Serialise a profile to JSON (summary plus optional full series).

    The output is canonical — keys sorted, values derived deterministically
    from the series — so equal results serialise to identical bytes.
    ``compact`` drops whitespace (the form the fleet cache hashes and
    stores); the default stays human-readable.
    """
    payload = result_to_dict(result, include_series)
    if compact:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(payload, indent=2, sort_keys=True)


def _series_from_entry(name: str, entry: Dict) -> SeriesData:
    spec = ParameterSpec(name, tuple(entry["events"]),
                         entry["resolution"], entry["basis"])
    data = SeriesData(spec)
    flagged = set(entry.get("degraded", ()))
    for index, (cycle, value) in enumerate(zip(entry["cycles"],
                                               entry["values"])):
        data.append(int(cycle), int(value), index in flagged)
    return data


def result_from_dict(payload: Dict) -> ProfileResult:
    """Rebuild a :class:`ProfileResult` from :func:`result_to_dict` data.

    Requires a full-series export (``include_series=True``); a summary-only
    export has thrown away the samples and cannot be round-tripped.
    """
    if not isinstance(payload, dict):
        raise FormatError("not a profile export: expected an object")
    required = ("cycles_run", "frequency_mhz", "parameters")
    for key in required:
        if key not in payload:
            raise FormatError(f"not a profile export: missing {key!r}")
    series: Dict[str, SeriesData] = {}
    for name, entry in payload["parameters"].items():
        if "cycles" not in entry or "values" not in entry:
            raise FormatError(
                f"summary-only export: parameter {name!r} has no series "
                "(re-export with include_series=True to round-trip)")
        series[name] = _series_from_entry(name, entry)
    return ProfileResult(
        series,
        cycles_run=payload["cycles_run"],
        trace_bits=payload.get("trace_bits", 0),
        frequency_mhz=payload["frequency_mhz"],
        lost_messages=payload.get("lost_messages", 0),
        gaps=[Gap.from_list(item) for item in payload.get("gaps", ())],
    )


def result_from_json(text: str) -> ProfileResult:
    """Rebuild a :class:`ProfileResult` from an exported profile."""
    return result_from_dict(json.loads(text))


def series_to_csv(result: ProfileResult,
                  names: Optional[List[str]] = None) -> str:
    """Long-format CSV: parameter, sample cycle, counted value, rate."""
    if names is None:
        names = sorted(result.series)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["parameter", "cycle", "value", "rate"])
    for name in names:
        data = result[name]
        resolution = data.spec.resolution
        for cycle, value in zip(data.cycle_list(), data.value_list()):
            writer.writerow([name, int(cycle), int(value),
                             value / resolution])
    return buffer.getvalue()


def result_from_csv(text: str,
                    specs: Optional[Dict[str, ParameterSpec]] = None,
                    cycles_run: Optional[int] = None,
                    frequency_mhz: int = 180,
                    trace_bits: int = 0,
                    lost_messages: int = 0) -> ProfileResult:
    """Rebuild a :class:`ProfileResult` from :func:`series_to_csv` output.

    The long-format CSV carries the samples but not the spec metadata, so
    reconstruction is best-effort unless ``specs`` supplies the original
    :class:`ParameterSpec` per parameter name: without it the resolution is
    inferred from ``value / rate`` and the basis/events default to the
    parameter's own name.  Device metadata absent from the CSV
    (``frequency_mhz``, ``trace_bits``, ``lost_messages``) can be passed
    explicitly; ``cycles_run`` defaults to the last sample cycle seen.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["parameter", "cycle", "value", "rate"]:
        raise FormatError("not a series CSV export: bad or missing header")
    series: Dict[str, SeriesData] = {}
    resolutions: Dict[str, int] = {}
    parsed: Dict[str, List] = {}
    for row in rows[1:]:
        if not row:
            continue
        name, cycle, value, rate = row[0], int(row[1]), int(row[2]), \
            float(row[3])
        parsed.setdefault(name, []).append((cycle, value))
        if name not in resolutions and value and rate:
            resolutions[name] = max(1, round(value / rate))
    max_cycle = 0
    for name, samples in parsed.items():
        if specs and name in specs:
            spec = specs[name]
        else:
            spec = ParameterSpec(name, (name,),
                                 resolutions.get(name, 1), name)
        data = SeriesData(spec)
        for cycle, value in samples:
            data.append(cycle, value)
            max_cycle = max(max_cycle, cycle)
        series[name] = data
    return ProfileResult(
        series,
        cycles_run=max_cycle if cycles_run is None else cycles_run,
        trace_bits=trace_bits,
        frequency_mhz=frequency_mhz,
        lost_messages=lost_messages,
    )


def summary_to_csv(result: ProfileResult) -> str:
    """Wide one-row-per-parameter summary CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["parameter", "samples", "resolution", "basis",
                     "mean_rate", "mean_percent"])
    for name in sorted(result.series):
        data = result[name]
        writer.writerow([name, len(data), data.spec.resolution,
                         data.spec.basis, data.mean_rate(),
                         data.mean_percent()])
    return buffer.getvalue()
