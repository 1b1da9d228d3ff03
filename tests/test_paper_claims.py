"""Short-cycle guards for paper claims E1, E3, E4, E7, E9, E10 and E11.

The full experiments live in ``benchmarks/`` (EXPERIMENTS.md has their
numbers).  These are shorter runs of the same claims, each cross-checked
against an independent count: IPC samples and the ICU's anomaly
interrupt count against the instructions the core retired and the
timer's period arithmetic, window counts against cycles, trace rates
and trace bits against the messages in the EMEM, traced instructions
against the instructions the core retired, and option gains and
delivered performance against the oracle CPI stack.
"""

import pytest

from repro.core.optimization import (OptionEvaluator, hardware_options,
                                     simulate_scaling)
from repro.core.profiling import MultiResolutionRate, ProfilingSession, spec
from repro.mcds.counters import CYCLES as CYCLE_BASIS
from repro.mcds.messages import MessageFactory
from repro.mcds.trigger import RateThreshold, Trigger
from repro.soc.config import tc1797_config
from repro.workloads import CustomerGenerator
from repro.workloads.engine import EngineControlScenario

DAP_MBPS = 16.0


def anomaly_starts(period, cycles):
    """Burst start cycles: the anomaly timer fires at a third of its
    period, then once per period."""
    return list(range(period // 3, cycles, period))


def anomaly_bursts(device):
    """Bursts the ICU actually took on the ``anomaly`` service request."""
    return next(srn.taken_count for srn in device.soc.icu.srns.values()
                if srn.name == "anomaly")


def test_e1_fine_windows_show_multiscalar_bursts_coarse_ones_hide():
    """E1: IPC measured every 64 cycles shows multi-scalar bursts above
    one instruction per cycle; measured every 1024 cycles, the same
    workload averages them away."""
    cycles = 30_000
    peak = {}
    for resolution in (64, 1024):
        device = EngineControlScenario().build(tc1797_config(), {}, seed=1)
        session = ProfilingSession(device, [spec.ipc(resolution)])
        closed = cycles // resolution * resolution
        device.run(closed)
        retired = device.cpu.retired
        device.run(cycles - closed)
        ipc = session.result()["tc.ipc"]

        # oracles: one window per resolution cycles, and the windows
        # count every instruction the core retired up to the last close
        assert len(ipc) == cycles // resolution
        assert int(ipc.values.sum()) == retired > 0
        peak[resolution] = float(ipc.rates.max())
    assert peak[64] > 1.0 > peak[1024]


def test_e3_coupled_counters_cut_bandwidth_and_arm_per_burst():
    """E3: a low-resolution IPC counter arms the high-resolution one only
    below a threshold, for a fraction of the always-on bits."""
    cycles, period, low_res, high_res, threshold = 100_000, 20_000, \
        1024, 64, 0.55
    params = {"anomaly": True, "anomaly_period": period}

    always_dev = EngineControlScenario().build(tc1797_config(), params,
                                               seed=3)
    always = always_dev.mcds.add_rate_counter(
        "ipc.high", ["tc.instr_executed"], high_res, basis=CYCLE_BASIS)
    always_dev.run(cycles)

    coupled_dev = EngineControlScenario().build(tc1797_config(), params,
                                                seed=3)
    coupled = MultiResolutionRate(coupled_dev, "ipc",
                                  ["tc.instr_executed"], low_res, high_res,
                                  threshold, basis=CYCLE_BASIS)
    coupled_dev.run(cycles)
    low, high = coupled.decode()

    # oracles: one always-on window per high_res cycles, and one burst
    # taken per timer period
    assert always.samples_emitted == cycles // high_res
    bursts = anomaly_bursts(coupled_dev)
    assert bursts == len(anomaly_starts(period, cycles)) >= 2

    assert coupled_dev.mcds.total_bits < always_dev.mcds.total_bits / 3
    assert coupled.activations >= bursts - 1 >= 1
    assert any(value / high_res < threshold for _, value in high)
    assert len(high) < always.samples_emitted / 2
    assert len(low) == cycles // low_res


def test_e4_enhanced_rates_fit_the_dap_where_sampling_does_not():
    """E4: on-chip rate messages fit a 16 Mbit/s DAP at every clock;
    reading two raw counters per window over the DAP does not."""
    cycles, ipc_res, rate_per = 60_000, 4096, 5000
    factory = MessageFactory(timestamp_enabled=False)
    # a DAP counter read: command and address on top of the data word
    raw_pair_bits = 2 * (factory.counter_raw(0, "c", 2**31).bits + 32)
    conventional = {}
    for freq in (80, 180, 360):
        config = tc1797_config()
        config.cpu.frequency_mhz = freq
        device = EngineControlScenario().build(config, {}, seed=4)
        result = ProfilingSession(device, spec.engine_parameter_set(
            ipc_resolution=ipc_res, rate_per=rate_per)).run(cycles)
        seconds = cycles / (freq * 1e6)

        # oracle: the rate is the MCDS's bit count over the run time, and
        # that count is the sum over the messages the EMEM holds
        assert result.bandwidth_mbps() == pytest.approx(
            device.mcds.total_bits / seconds / 1e6)
        assert device.mcds.total_bits == \
            sum(message.bits for message in device.emem.contents())

        samples = sum(len(result[name]) for name in result.names)
        conventional[freq] = samples * raw_pair_bits / seconds / 1e6
        enhanced = result.bandwidth_mbps()
        assert enhanced <= DAP_MBPS, freq
        assert conventional[freq] > 2.5 * enhanced, freq
    assert conventional[360] > DAP_MBPS


def test_e7_trigger_stop_holds_the_anomaly_a_free_ring_loses():
    """E7: in a 16 KB EMEM, an IPC-dip trigger freezes the capture around
    an anomaly burst; a free-running ring has wrapped past it."""
    cycles, period = 100_000, 30_000
    params = {"anomaly": True, "anomaly_period": period, "anomaly_len": 400}
    starts = anomaly_starts(period, cycles)

    def build():
        device = EngineControlScenario(
            ed_config_overrides={"emem_kb": 16}).build(
                tc1797_config(), params, seed=7)
        device.mcds.add_program_trace(cycle_accurate=True)
        return device

    def anomaly_share(device, window=6000):
        messages = device.emem.contents()
        hits = sum(1 for message in messages
                   if any(s <= message.cycle <= s + window for s in starts))
        return hits / len(messages)

    free = build()
    free.run(cycles)

    trig = build()
    ipc = trig.mcds.add_rate_counter("ipc.trigger", ["tc.instr_executed"],
                                     256, basis=CYCLE_BASIS)
    trig.mcds.add_trigger(Trigger(
        "anomaly_seen", RateThreshold(ipc, 128),
        on_enter=lambda cycle: trig.emem.trigger_stop(cycle, 0.5)))
    trig.run(cycles)

    # oracle: the bursts the ICU took are the timer's
    assert anomaly_bursts(free) == anomaly_bursts(trig) == len(starts)
    assert starts[0] <= trig.emem.trigger_cycle <= starts[0] + 8000
    assert anomaly_share(trig) > 4 * max(anomaly_share(free), 0.01)


def test_e10_flow_trace_costs_a_fraction_of_cycle_accurate_and_raw():
    """E10: the compressed flow trace costs well under a raw PC dump's
    32 bits per instruction; cycle-accurate mode costs more, still less
    than the raw dump."""
    bpi = {}
    for cycle_accurate in (False, True):
        device = EngineControlScenario().build(tc1797_config(), {}, seed=10)
        ptu = device.mcds.add_program_trace(cycle_accurate=cycle_accurate)
        device.run(30_000)

        # oracles: the unit traced every instruction the core retired,
        # and its bits are the bits of the messages the EMEM holds
        assert ptu.instructions_traced == device.cpu.retired > 0
        assert device.emem.dropped_messages == 0
        assert ptu.bits == sum(message.bits
                               for message in device.emem.contents())
        bpi[cycle_accurate] = ptu.bits_per_instruction
    assert bpi[False] < 8.0
    assert bpi[False] < bpi[True] < 32.0


#: E9's flash-path options: each shortens the path from flash to the core
FLASH_PATH = {"icache_x2", "flash_25ns", "prefetch_x4", "dbuf_x4",
              "dcache_4k", "banks_x4"}


def test_e9_every_engine_customer_ranks_a_flash_path_fix_top_three():
    """E9: the best option by gain per cost differs between the engine
    customers of one generated population, yet each one's top three
    holds a flash-path fix: the conclusion is a population property."""
    customers = [customer for customer in
                 CustomerGenerator(seed=42).generate(8)
                 if customer.domain == "engine"][:3]
    winners = set()
    for customer in customers:
        evaluator = OptionEvaluator(customer.scenario, tc1797_config(),
                                    hardware_options(),
                                    work_instructions=20_000, seed=9)
        evaluator.scenario.default_params = dict(
            evaluator.scenario.default_params, **customer.params)
        top = evaluator.evaluate()[:3]

        # oracle: the baseline's CPI stack books more stall cycles to the
        # flash path (fetch and load stalls) than to any other cause, and
        # no flash-path fix recovers more than those cycles
        stack = evaluator.context.stack.components
        flash = stack["fetch_stall"] + stack["load_stall"]
        assert flash > max(value for name, value in stack.items()
                           if name not in ("base", "fetch_stall",
                                           "load_stall"))
        cpi = evaluator.context.stack.cpi
        for result in top:
            if result.option.key in FLASH_PATH:
                assert 1.0 < result.measured_speedup < cpi / (cpi - flash)
        assert {result.option.key for result in top} & FLASH_PATH
        winners.add(top[0].option.key)
    assert len(customers) == 3
    assert len(winners) >= 2


def fix_flash_path(config):
    """E11's flash-path fix: doubled I-cache, 4-line flash buffers."""
    config.icache.size_bytes *= 2
    config.flash.code_buffer_lines = 4
    config.flash.data_buffer_lines = 4


def test_e11_flash_wall_eats_speedup_a_fixed_flash_path_recovers():
    """E11: at 4x the clock the unchanged architecture loses more than a
    fifth of the ideal speedup to flash wait states; the flash-path-fixed
    variant loses less."""
    loss = {}
    for configure in (None, fix_flash_path):
        low, high = simulate_scaling(EngineControlScenario(),
                                     tc1797_config(), (90, 360),
                                     work_instructions=30_000, seed=11,
                                     configure=configure)
        # oracle: delivered performance is clock ratio times CPI ratio,
        # with CPI from the oracle CPI stack
        assert high.relative_performance == pytest.approx(
            (360 / 90) * low.cpi / high.cpi, rel=1e-3)
        loss[configure] = 1.0 - high.relative_performance / (360 / 90)
    assert loss[None] > 0.20
    assert loss[fix_flash_path] < loss[None]
