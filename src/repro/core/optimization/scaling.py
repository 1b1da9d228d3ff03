"""Frequency-scaling study: why the flash path is the main lever.

The flash array's access time is fixed in nanoseconds, so raising the CPU
clock adds wait states — every next generation re-pays the flash penalty
(paper Section 4: "a flash access can take several CPU cycles, depending on
the CPU frequency").  This module quantifies that:

* :func:`simulate_scaling` re-runs a workload across CPU frequencies and
  reports delivered performance (work per second);
* :func:`predict_scaling` produces the same curve analytically from one
  measured profile, scaling only the flash-attributable CPI with the
  wait-state ratio — the architect's forward model for a device that does
  not exist yet;
* both expose the "scaling gap": the fraction of the ideal (linear)
  speedup that the flash path eats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ...soc.config import SoCConfig
from ...soc.kernel import signals
from .cpi import CpiStack
from .options import ProfileContext


@dataclass
class ScalingPoint:
    frequency_mhz: int
    wait_states: int
    cpi: float
    #: delivered work per wall-clock second, normalised to the first point
    relative_performance: float


def simulate_scaling(scenario, base_config: SoCConfig,
                     frequencies: Iterable[int],
                     work_instructions: int = 100_000,
                     seed: int = 2008,
                     configure=None) -> List[ScalingPoint]:
    """Measure performance across CPU frequencies by re-simulation.

    ``configure(config)`` optionally applies an architecture option to
    every point (e.g. a bigger I-cache) so scaling curves of design
    variants can be compared.
    """
    frequencies = list(frequencies)
    points: List[ScalingPoint] = []
    base_perf: Optional[float] = None
    for freq in frequencies:
        config = base_config.copy()
        config.cpu.frequency_mhz = freq
        if configure is not None:
            configure(config)
        device = scenario.build(config, {}, seed)
        device.soc._ensure_order()
        device.soc.sim.run_until(
            lambda sim: device.cpu.retired >= work_instructions,
            max_cycles=50_000_000)
        seconds = device.cycle / (freq * 1e6)
        perf = work_instructions / seconds
        if base_perf is None:
            base_perf = perf
        stack = CpiStack.from_counts(device.oracle(), device.cycle, config)
        points.append(ScalingPoint(freq, config.flash.wait_states(freq),
                                   stack.cpi, perf / base_perf))
    return points


def predict_scaling(context: ProfileContext, frequencies: Iterable[int]
                    ) -> List[ScalingPoint]:
    """Analytic scaling curve from one measured profile.

    The flash-attributable CPI (fetch stalls + flash-data load stalls)
    scales with the wait-state ratio; everything else is frequency
    invariant in cycles.
    """
    base_config = context.config
    base_freq = base_config.cpu.frequency_mhz
    ws_base = base_config.flash.wait_states(base_freq)
    stack = context.stack
    flash_cpi = (stack.components.get("fetch_stall", 0.0)
                 + context.flash_load_stall_cpi())
    other_cpi = stack.cpi - flash_cpi

    points: List[ScalingPoint] = []
    base_perf: Optional[float] = None
    for freq in frequencies:
        ws = base_config.flash.wait_states(freq)
        cpi = other_cpi + flash_cpi * (ws + 1) / (ws_base + 1)
        perf = freq / cpi
        if base_perf is None:
            base_perf = perf
        points.append(ScalingPoint(freq, ws, cpi, perf / base_perf))
    return points


def scaling_table(simulated: List[ScalingPoint],
                  predicted: Optional[List[ScalingPoint]] = None) -> str:
    lines = [f"{'MHz':>5}{'WS':>4}{'CPI':>8}{'rel perf':>10}{'ideal':>8}"
             + ("" if predicted is None else f"{'predicted':>11}")]
    base_freq = simulated[0].frequency_mhz
    for index, point in enumerate(simulated):
        ideal = point.frequency_mhz / base_freq
        row = (f"{point.frequency_mhz:>5}{point.wait_states:>4}"
               f"{point.cpi:>8.3f}{point.relative_performance:>10.3f}"
               f"{ideal:>8.2f}")
        if predicted is not None:
            row += f"{predicted[index].relative_performance:>11.3f}"
        lines.append(row)
    last = simulated[-1]
    ideal_last = last.frequency_mhz / base_freq
    gap = 1.0 - last.relative_performance / ideal_last
    lines.append(f"scaling gap at {last.frequency_mhz} MHz: {gap:.0%} of the "
                 f"ideal speedup lost to the flash path")
    return "\n".join(lines)
