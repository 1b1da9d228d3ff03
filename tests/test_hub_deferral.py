"""Held publication: retired instructions reach the hub once per window.

Inside the quiescent kernel's single-owner span the TriCore sums its
retired instructions and publishes ``tc.instr_executed`` where the sum
reaches the hub's horizon (the nearest window close or counter overflow)
and at every span exit.  The contract under test: no observer can tell.
EMEM streams, counter state (saturations, wraps, taints), oracle totals
and CPU state equal the naive kernel's per-tick publication at every step
boundary, while publication itself drops to about once per window.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiling import ProfilingSession, spec
from repro.ed.device import EdConfig, EmulationDevice
from repro.mcds.counters import CYCLES, SATURATE, WRAP
from repro.soc.config import tc1797_config
from repro.soc.kernel import kernel_mode, signals
from repro.soc.kernel.hub import unbounded
from repro.soc.kernel.kprof import KernelProfiler
from repro.workloads import SCENARIOS
from tests.test_fuzz_programs import body_ops, build_program

#: (IPC resolution in cycles, event-rate resolution in instructions)
GRIDS = [(256, 100), (32, 1), (1000, 7)]


def _fuzz_device(ops, helper_ops, seed, grid, mode):
    ipc_resolution, rate_per = grid
    with kernel_mode("naive" if mode == "naive" else "quiescent"):
        device = EmulationDevice(EdConfig(soc=tc1797_config()), seed=seed)
    # a fresh program per run: address generators hold per-instance state
    device.load_program(build_program(ops, helper_ops))
    ProfilingSession(device, spec.engine_parameter_set(ipc_resolution,
                                                       rate_per))
    # 4-bit counters of the held signal itself: a saturating one closed by
    # the MCDS clock and a wrapping one closed by its own basis, so
    # overflows land inside held spans
    device.mcds.add_rate_counter("instr.sat4", [signals.TC_INSTR],
                                 ipc_resolution, basis=CYCLES, width=4,
                                 on_overflow=SATURATE)
    device.mcds.add_rate_counter("instr.wrap4", [signals.TC_INSTR],
                                 ipc_resolution, width=4, on_overflow=WRAP)
    if mode == "profiled":
        KernelProfiler(device.soc.sim).attach()
    return device


def _observe(device):
    return ([m.to_dict() for m in device.emem.contents()],
            device.mcds.snapshot_state(), device.oracle(),
            device.cpu.snapshot_state())


@settings(max_examples=20, deadline=None)
@given(ops=body_ops(), helper_ops=body_ops(), seed=st.integers(0, 99),
       grid=st.sampled_from(GRIDS),
       steps=st.lists(st.integers(1, 2500), min_size=1, max_size=4))
def test_held_publication_is_invisible(ops, helper_ops, seed, grid, steps):
    boundaries = list(itertools.accumulate(steps))
    runs = {}
    for mode in ("naive", "quiescent", "profiled"):
        device = _fuzz_device(ops, helper_ops, seed, grid, mode)
        seen = []
        for stop in boundaries:
            device.run(stop - device.cycle)
            seen.append(_observe(device))
        runs[mode] = seen
    assert runs["quiescent"] == runs["naive"]
    assert runs["profiled"] == runs["naive"]


# -- the gain, guarded: publication once per window, not per tick ------------
GUARD_CYCLES = 20_000


def _publications(name, mode, horizon_less=False):
    """``tc.instr_executed`` counts as published to a subscriber that
    takes any sum late, over a campaign-grid run of one scenario."""
    with kernel_mode(mode):
        device = SCENARIOS[name]().build(tc1797_config(), {}, seed=2008)
    ProfilingSession(device, spec.engine_parameter_set(256, 100))
    hub = device.soc.hub
    calls = []
    hub.subscribe(signals.TC_INSTR, calls.append, unbounded)
    if horizon_less:
        hub.subscribe(signals.TC_INSTR, lambda count: None)
    device.run(GUARD_CYCLES)
    assert sum(calls) == device.cpu.retired
    return device, calls


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_instr_published_once_per_window_not_per_tick(name):
    device, held = _publications(name, "quiescent")
    stats = device.soc.sim.kernel_stats()
    ticks = next(entry["ticks"] for entry in stats["components"]
                 if entry["name"] == "tricore")
    assert 10 * len(held) < ticks

    # one subscriber that declares no horizon restores per-tick
    # publication: the same calls the naive kernel makes
    _, per_tick = _publications(name, "quiescent", horizon_less=True)
    _, naive = _publications(name, "naive")
    assert per_tick == naive
    assert 10 * len(held) < len(naive)
