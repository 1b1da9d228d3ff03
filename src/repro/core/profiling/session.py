"""Profiling sessions: configure MCDS, run, decode rate-sample series.

A session maps parameter specs onto MCDS counter structures, runs the
device, and decodes the resulting rate-sample messages back into per-
parameter time series — the workflow a tool vendor's profiling front-end
performs over the DAP on real EDs.

Everything the session learns comes out of trace messages, never out of
simulator internals; the oracle totals are only used by tests to check the
decoded values.

Degradation semantics: a sample covers the window ``(previous sample's
cycle, its own cycle]``.  If that window overlaps any recorded trace
:class:`~repro.mcds.messages.Gap` — messages wrapped away, rejected,
corrupted, or dropped on the wire — or the message itself is tainted by a
counter overflow, the sample is decoded but **marked degraded** instead of
silently reported as a trustworthy rate.
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ...ed.device import EmulationDevice
from ...errors import ConfigurationError
from ...mcds import messages as msgs
from ...obs import runtime as _obs
from .spec import ParameterSpec


class SeriesData:
    """One decoded rate series: sample cycles and counted-event values."""

    def __init__(self, spec: ParameterSpec) -> None:
        self.spec = spec
        self._cycles: List[int] = []
        self._values: List[int] = []
        self._degraded: List[bool] = []

    def append(self, cycle: int, value: int, degraded: bool = False) -> None:
        self._cycles.append(cycle)
        self._values.append(value)
        self._degraded.append(degraded)

    # -- list views (numpy-free, the scalar path's native form) --------------
    def cycle_list(self) -> List[int]:
        return self._cycles

    def value_list(self) -> List[int]:
        return self._values

    def degraded_indices(self) -> List[int]:
        return [i for i, flag in enumerate(self._degraded) if flag]

    # -- array views (require the optional numpy extra) ----------------------
    @property
    def cycles(self):
        import numpy as np
        return np.asarray(self._cycles, dtype=np.int64)

    @property
    def values(self):
        import numpy as np
        return np.asarray(self._values, dtype=np.int64)

    @property
    def degraded(self):
        """Per-sample flag: the window overlapped a trace gap / taint."""
        import numpy as np
        return np.asarray(self._degraded, dtype=bool)

    @property
    def degraded_count(self) -> int:
        return sum(self._degraded)

    @property
    def rates(self):
        """Values normalised by the resolution (events per basis unit)."""
        return self.values / float(self.spec.resolution)

    def mean_rate(self) -> float:
        # integer sum is exact, so this equals the former float(np.mean(...))
        # for any realistic series (values are counter readings < 2**32 and
        # float64 pairwise summation of such integers is exact below 2**53)
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values) / self.spec.resolution

    def mean_percent(self) -> float:
        return self.mean_rate() * 100.0

    def __len__(self) -> int:
        return len(self._values)


def _window_overlaps(spans: Sequence[Tuple[int, int]], lo: int,
                     hi: int) -> bool:
    """Does the half-open window ``(lo, hi]`` touch any merged gap span?"""
    idx = bisect.bisect_right(spans, (hi, float("inf")))
    return idx > 0 and spans[idx - 1][1] > lo


def decode_rate_stream(stream, series: Dict[str, "SeriesData"],
                       gaps: Sequence[msgs.Gap] = ()) -> None:
    """Decode rate-sample messages into ``series``, marking degradation.

    Shared by the post-mortem and streaming sessions so both apply the
    same gap/taint semantics.  A fine grid decodes one sample per closed
    window, so each appends straight to its series' three lists.
    """
    spans = msgs.merge_gap_spans(list(gaps)) if gaps else []
    prev: Dict[str, int] = {}
    for msg in stream:
        if msg.kind != msgs.RATE_SAMPLE:
            continue
        data = series.get(msg.source)
        if data is None:
            continue
        cycle = msg.cycle
        degraded = bool(msg.extra and msg.extra.get("tainted"))
        if spans:
            if not degraded:
                degraded = _window_overlaps(spans, prev.get(msg.source, -1),
                                            cycle)
            prev[msg.source] = cycle
        data._cycles.append(cycle)
        data._values.append(msg.value)
        data._degraded.append(degraded)


class ProfileResult:
    """Decoded output of one profiling run."""

    def __init__(self, series: Dict[str, SeriesData], cycles_run: int,
                 trace_bits: int, frequency_mhz: int,
                 lost_messages: int,
                 gaps: Optional[Sequence[msgs.Gap]] = None) -> None:
        self.series = series
        self.cycles_run = cycles_run
        self.trace_bits = trace_bits
        self.frequency_mhz = frequency_mhz
        self.lost_messages = lost_messages
        self.gaps: List[msgs.Gap] = list(gaps) if gaps else []

    def __getitem__(self, name: str) -> SeriesData:
        return self.series[name]

    def __contains__(self, name: str) -> bool:
        return name in self.series

    @property
    def names(self):
        return tuple(self.series)

    @property
    def degraded_samples(self) -> int:
        """Samples across all series whose windows overlap a trace gap."""
        return sum(data.degraded_count for data in self.series.values())

    @property
    def healthy(self) -> bool:
        return not self.lost_messages and not self.degraded_samples

    def mean_rate(self, name: str) -> float:
        return self.series[name].mean_rate()

    def bandwidth_mbps(self) -> float:
        """Sustained tool-interface rate this measurement needs."""
        if self.cycles_run == 0:
            return 0.0
        seconds = self.cycles_run / (self.frequency_mhz * 1e6)
        return self.trace_bits / seconds / 1e6

    def summary(self) -> Dict[str, float]:
        return {name: data.mean_rate() for name, data in self.series.items()}

    def summary_table(self) -> str:
        lines = [f"{'parameter':<28}{'samples':>8}{'mean rate':>12}"]
        for name, data in sorted(self.series.items()):
            lines.append(f"{name:<28}{len(data):>8}{data.mean_rate():>12.4f}")
        lines.append(f"trace: {self.trace_bits} bits over {self.cycles_run} "
                     f"cycles = {self.bandwidth_mbps():.3f} Mbit/s")
        if self.lost_messages or self.degraded_samples:
            lines.append(f"DEGRADED: {self.lost_messages} messages lost in "
                         f"{len(self.gaps)} gaps; {self.degraded_samples} "
                         f"samples affected")
        return "\n".join(lines)


class ProfilingSession:
    """Allocates counter structures for a spec set and decodes the capture."""

    def __init__(self, device: EmulationDevice,
                 specs: Iterable[ParameterSpec]) -> None:
        self.device = device
        self.specs = list(specs)
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ConfigurationError("parameter names must be unique")
        self.structures = {}
        for spec in self.specs:
            self.structures[spec.name] = device.mcds.add_rate_counter(
                spec.name, spec.events, spec.resolution, spec.basis)
        self._start_cycle = device.cycle
        self._start_bits = device.mcds.total_bits

    def run(self, cycles: int) -> "ProfileResult":
        self.device.run(cycles)
        return self.result()

    def result(self) -> ProfileResult:
        """Decode all rate-sample messages captured so far."""
        tel = _obs._active
        if tel is not None:
            with tel.span("pipeline.decode", cat="pipeline") as args:
                result = self._result()
                args["messages"] = (len(self.device.dap.received)
                                    + self.device.emem.message_count)
                args["gaps"] = len(result.gaps)
            return result
        return self._result()

    def _result(self) -> ProfileResult:
        device = self.device
        series = {spec.name: SeriesData(spec) for spec in self.specs}
        gaps = device.trace_gaps()
        decode_rate_stream(chain(device.dap.received,
                                 device.emem.iter_contents()), series, gaps)
        lost = (device.emem.dropped_messages + device.dap.dropped_messages)
        return ProfileResult(
            series,
            cycles_run=device.cycle - self._start_cycle,
            trace_bits=device.mcds.total_bits - self._start_bits,
            frequency_mhz=device.config.soc.cpu.frequency_mhz,
            lost_messages=lost,
            gaps=gaps,
        )

    def detach(self) -> None:
        """Free the counter structures (end of session)."""
        for structure in self.structures.values():
            self.device.mcds.remove_rate_counter(structure)
        self.structures.clear()
