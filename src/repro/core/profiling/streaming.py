"""Streaming profiling: long-duration measurement through the live DAP.

Post-mortem capture (fill the EMEM, upload afterwards) covers milliseconds;
observing a whole drive cycle needs the DAP to drain rate messages *while*
the system runs, with the EMEM acting as an elastic buffer (paper Section
5: "The sampled rate values are saved in the trace memory of the ED which
acts as a buffer, and then downloaded ... via the JTAG or DAP interface").

Because "the bandwidth of the tool interface does not scale with the CPU
frequency", the right resolution depends on the device and the parameter
set.  :class:`AdaptiveResolutionController` automates the paper's manual
procedure — start coarse, refine while the wire keeps up, back off when
the buffer fills — by scaling all windows by powers of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional

from ...ed.device import EmulationDevice
from ...errors import (BandwidthExceededError, ConfigurationError,
                       TraceOverrunError)
from .session import ProfileResult, SeriesData, decode_rate_stream
from .spec import ParameterSpec


@dataclass
class StreamingStats:
    """Wire-side health of a streaming session."""

    cycles: int
    messages_received: int
    bits_transferred: int
    emem_peak_fill: float
    messages_lost: int
    gaps: int = 0

    @property
    def healthy(self) -> bool:
        return self.messages_lost == 0


class StreamingSession:
    """Continuous measurement with live DAP drain and overflow accounting.

    ``strict=True`` turns any message loss into a
    :class:`~repro.errors.TraceOverrunError` at the end of :meth:`run` —
    for callers that would rather abort than interpret a degraded capture.
    """

    def __init__(self, device: EmulationDevice,
                 specs: Iterable[ParameterSpec],
                 strict: bool = False) -> None:
        if not device.dap.streaming:
            raise ConfigurationError(
                "device DAP is in post-mortem mode; build the ED with "
                "dap_streaming=True for a streaming session")
        self.device = device
        self.specs = list(specs)
        self.strict = strict
        self.structures = {
            spec.name: device.mcds.add_rate_counter(
                spec.name, spec.events, spec.resolution, spec.basis)
            for spec in self.specs
        }
        self._peak_fill = 0.0
        self._start_cycle = device.cycle

    def run(self, cycles: int, chunk: int = 2048) -> StreamingStats:
        """Run in chunks, tracking the EMEM's peak fill level."""
        device = self.device
        remaining = cycles
        while remaining > 0:
            step = chunk if chunk < remaining else remaining
            device.run(step)
            fill = device.emem.fill_ratio
            if fill > self._peak_fill:
                self._peak_fill = fill
            remaining -= step
        stats = self.stats()
        if self.strict and stats.messages_lost:
            raise TraceOverrunError(
                f"streaming session lost {stats.messages_lost} messages "
                f"across {stats.gaps} gaps (strict mode)")
        return stats

    def stats(self) -> StreamingStats:
        device = self.device
        return StreamingStats(
            cycles=device.cycle - self._start_cycle,
            messages_received=len(device.dap.received),
            bits_transferred=device.dap.bits_transferred,
            emem_peak_fill=self._peak_fill,
            messages_lost=(device.emem.dropped_messages
                           + device.dap.dropped_messages),
            gaps=len(device.emem.gaps) + len(device.dap.gaps),
        )

    def result(self) -> ProfileResult:
        """Decode everything received so far plus the in-flight buffer."""
        series = {spec.name: SeriesData(spec) for spec in self.specs}
        gaps = self.device.trace_gaps()
        decode_rate_stream(chain(self.device.dap.received,
                                 self.device.emem.iter_contents()),
                           series, gaps)
        stats = self.stats()
        return ProfileResult(
            series, stats.cycles,
            self.device.mcds.total_bits,
            self.device.config.soc.cpu.frequency_mhz,
            stats.messages_lost,
            gaps=gaps)


class AdaptiveResolutionController:
    """Finds the finest sustainable resolution for a parameter set.

    Doubles every window while the trial overflows (drops messages or
    pushes the EMEM past ``fill_limit``), halves it again while there is
    ample headroom, within ``[min_scale, max_scale]`` powers of two of the
    requested resolutions.  Mirrors the coarse-first-then-refine procedure
    of paper Section 5.
    """

    def __init__(self, build_device, specs: Iterable[ParameterSpec],
                 trial_cycles: int = 50_000, fill_limit: float = 0.5,
                 max_doublings: int = 10) -> None:
        """``build_device()`` must return a fresh streaming-mode ED."""
        self.build_device = build_device
        self.base_specs = list(specs)
        self.trial_cycles = trial_cycles
        self.fill_limit = fill_limit
        self.max_doublings = max_doublings
        self.trials: List[Dict] = []

    def _scaled(self, scale: int) -> List[ParameterSpec]:
        return [ParameterSpec(s.name, s.events, s.resolution * scale,
                              s.basis)
                for s in self.base_specs]

    def _trial(self, scale: int) -> Dict:
        device = self.build_device()
        session = StreamingSession(device, self._scaled(scale))
        stats = session.run(self.trial_cycles)
        outcome = {
            "scale": scale,
            "lost": stats.messages_lost,
            "peak_fill": stats.emem_peak_fill,
            "sustainable": (stats.messages_lost == 0
                            and stats.emem_peak_fill <= self.fill_limit),
        }
        self.trials.append(outcome)
        return outcome

    def calibrate(self) -> int:
        """Returns the chosen resolution scale (a power of two, >= 1)."""
        scale = 1
        outcome = self._trial(scale)
        doublings = 0
        while not outcome["sustainable"] and doublings < self.max_doublings:
            scale *= 2
            doublings += 1
            outcome = self._trial(scale)
        if not outcome["sustainable"]:
            raise BandwidthExceededError(
                f"no sustainable resolution within {self.max_doublings} "
                f"doublings; the parameter set is too wide for this DAP")
        return scale

    def specs_for(self, scale: int) -> List[ParameterSpec]:
        return self._scaled(scale)
