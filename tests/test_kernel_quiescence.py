"""Quiescence-aware kernel: skip-list scheduling vs the naive oracle.

The contract under test: a component that answers ``idle_until`` is
promising its tick is a no-op before that cycle, and the quiescent kernel
may therefore skip it — *observationally* the two kernels must be
indistinguishable (oracle totals, CPU state, trace bytes, halt
accounting).  Strict-equivalence mode runs the naive order while auditing
every skip claim, so an unsound ``idle_until`` is caught deterministically
instead of silently corrupting results.
"""

import pytest

from repro.core.profiling import ProfilingSession, spec
from repro.errors import KernelEquivalenceError, WatchdogExpired
from repro.faults.watchdog import SimulationWatchdog
from repro.soc.config import tc1797_config
from repro.soc.kernel import kernel_mode
from repro.soc.kernel.kprof import (KernelProfiler, format_kernel_stats,
                                    format_top_components)
from repro.soc.kernel.simulator import (FOREVER, Component, Simulator,
                                        set_default_kernel)
from repro.workloads import (BodyGatewayScenario, EngineControlScenario,
                             RtosScenario, TransmissionScenario)

CYCLES = 30_000


def build(scenario, params, mode, seed=2008):
    with kernel_mode(mode):
        return scenario().build(tc1797_config(), dict(params), seed=seed)


def state(device):
    cpu = device.soc.cpu
    return {
        "oracle": device.soc.hub.snapshot(),
        "cycle": device.soc.sim.cycle,
        "pc": cpu.pc,
        "retired": cpu.retired,
        "halt_cycles": cpu.halt_cycles,
        "mcds_messages": device.mcds.total_messages,
        "mcds_bits": device.mcds.total_bits,
    }


# -- device-level observational equivalence ---------------------------------
@pytest.mark.parametrize("scenario,params", [
    (EngineControlScenario, {}),
    (RtosScenario, {}),
    (RtosScenario, {"idle_halt": True}),
])
def test_quiescent_kernel_matches_naive(scenario, params):
    naive = build(scenario, params, "naive")
    naive.run(CYCLES)
    quiescent = build(scenario, params, "quiescent")
    quiescent.run(CYCLES)
    assert state(quiescent) == state(naive)


@pytest.mark.parametrize("scenario,params", [
    (EngineControlScenario, {}),
    (RtosScenario, {"idle_halt": True}),
])
def test_strict_equivalence_mode_audits_clean(scenario, params):
    naive = build(scenario, params, "naive")
    naive.run(CYCLES)
    strict = build(scenario, params, "strict")
    strict.run(CYCLES)           # would raise on any unsound idle claim
    assert state(strict) == state(naive)
    assert strict.soc.sim.kernel_stats()["kernel"] == "strict"


def test_strict_snapshots_credit_audited_ticks_once():
    # strict mode audits an asleep slot by ticking it; settling a step
    # boundary must not replay those cycles through on_kernel_skip
    naive = build(RtosScenario, {"idle_halt": True}, "naive")
    strict = build(RtosScenario, {"idle_halt": True}, "strict")
    for stop in (1234, 10_000, CYCLES):
        naive.run(stop - naive.cycle)
        strict.run(stop - strict.cycle)
        assert strict.soc.sim.snapshot_state() == \
            naive.soc.sim.snapshot_state()
    stats = strict.soc.sim.kernel_stats()
    for entry in stats["components"]:
        assert 0 <= entry["skipped"] <= CYCLES
        assert entry["ticks"] + entry["skipped"] == CYCLES


# -- profiled runs: the MCDS sleeps between cycle-basis windows ---------------
#: step boundaries inside open windows of both grids
PROFILED_STOPS = (1234, 5000, 12345)


def emem_stream(device):
    return [(m.kind, m.cycle, m.source, m.value, m.bits)
            for m in device.emem.contents()]


class _TracedEngine(EngineControlScenario):
    """Engine control with a program-trace unit on the TriCore."""

    def build(self, *args, **kwargs):
        device = super().build(*args, **kwargs)
        device.mcds.add_program_trace()
        return device


@pytest.mark.parametrize("ipc_resolution,rate_per", [(256, 100), (32, 1)])
@pytest.mark.parametrize("scenario,params", [
    (EngineControlScenario, {}),
    (RtosScenario, {"idle_halt": True}),
    (TransmissionScenario, {}),
    (BodyGatewayScenario, {}),
    (_TracedEngine, {}),
])
def test_profiled_kernels_match_naive(scenario, params, ipc_resolution,
                                      rate_per):
    runs, stats = {}, None
    for mode in ("naive", "quiescent", "strict"):
        device = build(scenario, params, mode)
        ProfilingSession(device, spec.engine_parameter_set(
            ipc_resolution, rate_per))
        snapshots = []
        for stop in PROFILED_STOPS:
            device.run(stop - device.cycle)
            snapshots.append(device.soc.sim.snapshot_state())
        runs[mode] = (state(device), emem_stream(device), snapshots)
        if mode == "quiescent":
            stats = device.soc.sim.kernel_stats()
    assert runs["quiescent"] == runs["naive"]
    assert runs["strict"] == runs["naive"]
    assert runs["naive"][1]                        # samples were emitted

    # non-intrusive while the MCDS sleeps: CPU state and oracle totals
    # equal an unprofiled run's
    bare = build(scenario, params, "quiescent")
    bare.run(PROFILED_STOPS[-1])
    profiled = runs["quiescent"][0]
    assert {key: value for key, value in state(bare).items()
            if not key.startswith("mcds")} == \
        {key: value for key, value in profiled.items()
         if not key.startswith("mcds")}

    # the MCDS ticks once per closing cycle-basis window, not per cycle
    mcds = next(e for e in stats["components"] if e["name"] == "mcds")
    assert mcds["ticks"] <= PROFILED_STOPS[-1] // ipc_resolution + 2


def test_equivalence_survives_reset():
    devices = []
    for mode in ("naive", "quiescent"):
        device = build(RtosScenario, {"idle_halt": True}, mode)
        device.run(CYCLES)
        device.soc.reset()
        device.run(CYCLES)
        devices.append(device)
    assert state(devices[0]) == state(devices[1])


def test_kernel_stats_accounts_every_cycle():
    device = build(RtosScenario, {"idle_halt": True}, "quiescent")
    device.run(CYCLES)
    stats = device.soc.sim.kernel_stats()
    assert stats["cycles"] == CYCLES
    assert stats["cycles_per_sec"] > 0
    for entry in stats["components"]:
        # every component's ticks + skips tile its lifetime exactly
        assert entry["ticks"] + entry["skipped"] == CYCLES
    by_name = {e["name"]: e for e in stats["components"]}
    assert by_name["tricore"]["skipped"] > 0        # WFI idle actually slept


def test_kernel_profiler_measures_wall_shares():
    device = build(EngineControlScenario, {}, "quiescent")
    sim = device.soc.sim
    with KernelProfiler(sim):
        device.run(5_000)
        stats = sim.kernel_stats()
    cpu = next(e for e in stats["components"] if e["name"] == "tricore")
    assert cpu["wall_s"] > 0
    assert 0 < cpu["wall_share"] <= 1
    rendered = format_kernel_stats(stats)
    assert "tricore" in rendered and "cycles/s" in rendered
    # detached: stats keep counting ticks but drop wall columns
    device.run(1_000)
    stats = sim.kernel_stats()
    assert "wall_s" not in stats["components"][0]


def test_top_components_table_sorted_stable_truncated():
    stats = {"components": [
        {"name": "zeta", "ticks": 10, "wall_s": 0.5},
        {"name": "alpha", "ticks": 20, "wall_s": 0.5},   # wall tie
        {"name": "mid", "ticks": 30, "wall_s": 1.0},
        {"name": "tiny", "ticks": 5, "wall_s": 0.1},
    ]}
    rendered = format_top_components(stats, 3)
    rows = rendered.splitlines()[1:]
    names = [row.split()[1] for row in rows]
    # wall seconds descending, name ascending on ties, truncated to N
    assert names == ["mid", "alpha", "zeta"]
    assert rendered == format_top_components(stats, 3)   # deterministic
    assert "100.0%" not in rows[-1]      # cum% excludes the dropped row
    # without profiler wall times there is nothing to rank
    plain = {"components": [{"name": "a", "ticks": 1}]}
    assert "attach a KernelProfiler" in format_top_components(plain, 3)


# -- strict mode catches liars ----------------------------------------------
class _Liar(Component):
    """Claims eternal quiescence while mutating the oracle every tick."""

    name = "liar"

    def __init__(self, hub):
        self.hub = hub
        self.sid = hub.register("liar.evt")

    def idle_until(self, cycle):
        return FOREVER

    def tick(self, cycle):
        self.hub.emit(self.sid)


def test_strict_mode_catches_unsound_idle_claim():
    sim = Simulator(strict_equivalence=True)
    sim.add(_Liar(sim.hub))
    with pytest.raises(KernelEquivalenceError, match="liar"):
        sim.step(3)


def test_strict_mode_accepts_state_hidden_from_hub():
    class CovertLiar(Component):
        name = "covert"
        shadow = 0

        def idle_until(self, cycle):
            return FOREVER

        def observable_state(self):
            return self.shadow

        def tick(self, cycle):
            self.shadow += 1        # invisible to hub totals, not to audit

    sim = Simulator(strict_equivalence=True)
    sim.add(CovertLiar())
    with pytest.raises(KernelEquivalenceError):
        sim.step(3)


# -- wake ordering around the in-cycle cursor --------------------------------
class _Sleeper(Component):
    """Acts only when poked; sleeps forever otherwise."""

    def __init__(self, name, log):
        self.name = name
        self.log = log
        self.pending = False

    def poke(self):
        self.pending = True
        self.wake()

    def idle_until(self, cycle):
        return None if self.pending else FOREVER

    def tick(self, cycle):
        if self.pending:
            self.pending = False
            self.log.append((cycle, self.name))


class _Poker(Component):
    name = "poker"

    def __init__(self, target, at):
        self.target = target
        self.at = at

    def tick(self, cycle):
        if cycle == self.at:
            self.target.poke()


@pytest.mark.parametrize("sleeper_first", [True, False])
def test_mid_cycle_wake_order_matches_naive(sleeper_first):
    logs = {}
    for mode in ("naive", "quiescent"):
        log = []
        with kernel_mode(mode):
            sim = Simulator()
        sleeper = _Sleeper("s", log)
        if sleeper_first:
            sim.add(sleeper)
            sim.add(_Poker(sleeper, at=10))
        else:
            sim.add(_Poker(sleeper, at=10))
            sim.add(sleeper)
        sim.step(20)
        logs[mode] = log
    # sleeper before the poker: the poke lands after its slot already ran,
    # so it acts the *next* cycle; after the poker: same cycle
    expected_cycle = 11 if sleeper_first else 10
    assert logs["naive"] == logs["quiescent"] == [(expected_cycle, "s")]


def test_external_wake_between_steps():
    log = []
    with kernel_mode("quiescent"):
        sim = Simulator()
    sleeper = sim.add(_Sleeper("s", log))
    sim.step(50)                  # fully quiescent span
    sleeper.poke()                # tool/API access from outside the clock
    sim.step(5)
    assert log == [(50, "s")]


# -- run_until stride + back-off ---------------------------------------------
@pytest.mark.parametrize("check_every", [1, 7, 64, 1000])
def test_run_until_stride_is_bit_identical(check_every):
    with kernel_mode("quiescent"):
        sim = Simulator()
    sim.add(_Sleeper("s", []))    # asleep forever: pure fast-forward span
    ran = sim.run_until(lambda s: s.cycle >= 1234, check_every=check_every)
    assert ran == 1234
    assert sim.cycle == 1234


def test_run_until_stride_matches_hot_loop():
    # the predicate crosses while components are ticking, not fast-forwarding
    for check_every in (1, 13):
        with kernel_mode("quiescent"):
            sim = Simulator()
        log = []

        class Busy(Component):
            def tick(self, cycle):
                log.append(cycle)

        sim.add(Busy())
        ran = sim.run_until(lambda s: s.cycle >= 100,
                            check_every=check_every)
        assert ran == 100
        assert log == list(range(100))


def test_run_until_rejects_bad_stride():
    sim = Simulator()
    with pytest.raises(Exception):
        sim.run_until(lambda s: True, check_every=0)


# -- watchdog accounting through fast-forward --------------------------------
def test_watchdog_cycle_budget_fires_through_fast_forward():
    device = build(RtosScenario, {"idle_halt": True}, "quiescent")
    watchdog = SimulationWatchdog(max_cycles=7_000)
    with pytest.raises(WatchdogExpired):
        with watchdog.guard(device):
            device.run(1_000_000)
    # the skipped spans counted: expiry at the budget, not at the horizon
    assert device.soc.sim.cycle == 7_000
    assert watchdog.expirations == 1


def test_watchdog_budget_expiry_cycle_matches_naive():
    cycles = {}
    for mode in ("naive", "quiescent"):
        device = build(RtosScenario, {"idle_halt": True}, mode)
        watchdog = SimulationWatchdog(max_cycles=5_500)
        with pytest.raises(WatchdogExpired):
            with watchdog.guard(device):
                device.run(100_000)
        cycles[mode] = device.soc.sim.cycle
    assert cycles["naive"] == cycles["quiescent"]


# -- reset + cached rng handles (in-place reseed) ----------------------------
class _RngConsumer(Component):
    """Caches its rng() handle at construction, like CanNode does."""

    name = "rng_consumer"

    def __init__(self, sim, log):
        self.rng = sim.rng("consumer")   # handle cached once
        self.log = log

    def tick(self, cycle):
        self.log.append(round(self.rng.random(), 12))


def test_reset_rewinds_cached_rng_handles():
    def sequence():
        sim = Simulator(seed=77)
        log = []
        sim.add(_RngConsumer(sim, log))
        sim.step(40)
        first = list(log)
        sim.reset()
        log.clear()
        sim.step(40)
        return first, list(log)

    first_a, second_a = sequence()
    first_b, second_b = sequence()
    assert first_a == first_b
    assert second_a == second_b
    # in-place reseed: the cached handle rewinds to the same stream
    assert first_a == second_a


def test_device_reset_sequences_are_deterministic():
    def sequence():
        device = build(RtosScenario, {}, "quiescent", seed=11)
        device.run(15_000)
        device.soc.reset()
        device.run(15_000)
        return state(device)

    assert sequence() == sequence()


# -- mode plumbing ------------------------------------------------------------
def test_set_default_kernel_round_trips():
    previous = set_default_kernel("naive")
    try:
        assert Simulator().kernel == "naive"
        with kernel_mode("strict"):
            assert Simulator()._mode == "strict"
        assert Simulator().kernel == "naive"
    finally:
        set_default_kernel(previous)
    assert Simulator().kernel == previous
