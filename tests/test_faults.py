"""Fault injection: determinism, site coverage, and graceful degradation."""

import json

import pytest

from repro.core.profiling import ProfilingSession, StreamingSession, spec
from repro.core.profiling.export import result_from_json, result_to_json
from repro.ed.device import EdConfig, EmulationDevice
from repro.ed.emem import EmulationMemory
from repro.errors import (BandwidthExceededError, ConfigurationError,
                          CounterSaturationError, FaultInjected, FormatError,
                          ReproError, ResourceExhaustedError,
                          TraceOverrunError, WatchdogExpired)
from repro.faults import (SITE_CATALOGUE, FaultInjector, FaultPlan, FaultRule,
                          SimulationWatchdog, active_injector, fault_point,
                          load_fault_plan)
from repro.fleet import CampaignJob, CampaignRunner
from repro.fleet.worker import execute_job
from repro.mcds import messages as msgs
from repro.mcds.counters import RateCounterStructure
from repro.mcds.trigger import Condition, Trigger
from repro.soc.config import tc1797_config
from repro.soc.cpu import isa
from repro.soc.memory import map as amap

from tests.helpers import make_loop_program


def make_device(seed=13, emem_kb=512, streaming=False, dap_mbps=16.0):
    device = EmulationDevice(EdConfig(
        soc=tc1797_config(), emem_kb=emem_kb,
        dap_bandwidth_mbps=dap_mbps, dap_streaming=streaming), seed=seed)
    device.load_program(make_loop_program(
        alu_per_iter=3,
        load_gen=isa.TableAddr(amap.PFLASH_BASE + 0x10_0000, 4, 2048,
                               locality=0.6)))
    return device


def message(cycle, value=1, source="c"):
    return msgs.TraceMessage(msgs.RATE_SAMPLE, cycle, 64, source, value)


def emem_invariant(emem):
    return (emem.total_stored == emem.message_count + emem.lost_oldest
            + emem.lost_new + emem.corrupt_dropped + emem.injected_drops)


# -- taxonomy ----------------------------------------------------------------

def test_exception_taxonomy_lineage():
    # multiple inheritance keeps pre-taxonomy except-clauses working
    assert issubclass(ConfigurationError, ValueError)
    assert issubclass(FormatError, ValueError)
    for exc in (TraceOverrunError, BandwidthExceededError,
                CounterSaturationError, ResourceExhaustedError,
                WatchdogExpired, FaultInjected):
        assert issubclass(exc, RuntimeError), exc
        assert issubclass(exc, ReproError), exc
    assert FaultInjected("x").retryable
    assert not ConfigurationError("x").retryable
    assert not WatchdogExpired("x").retryable
    assert WatchdogExpired("x", retryable=True).retryable


# -- plans -------------------------------------------------------------------

def test_plan_json_round_trip(tmp_path):
    plan = FaultPlan(seed=7, rules=(
        {"site": "emem.drop", "probability": 0.25, "max_faults": 3},
        {"site": "dap.saturate", "start_hit": 100,
         "params": {"cycles": 500}},
    ), watchdog={"max_cycles": 10_000}, description="drill")
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    loaded = load_fault_plan(str(path))
    assert loaded == plan
    assert loaded.rules[0].probability == 0.25
    assert loaded.watchdog == {"max_cycles": 10_000}


def test_plan_validation():
    with pytest.raises(ConfigurationError, match="unknown fault site"):
        FaultRule(site="nonexistent.site")
    with pytest.raises(ConfigurationError, match="probability"):
        FaultRule(site="emem.drop", probability=1.5)
    with pytest.raises(FormatError, match="unknown fault-rule keys"):
        FaultRule.from_dict({"site": "emem.drop", "chance": 0.5})
    with pytest.raises(FormatError, match="rules"):
        FaultPlan.from_dict({"seed": 3})
    with pytest.raises(FormatError, match="JSON"):
        FaultPlan.from_json("{nope")


def test_fault_point_is_noop_without_injector():
    assert active_injector() is None
    assert fault_point("emem.drop", cycle=0) is None


def test_injector_install_stack():
    plan = FaultPlan(rules=({"site": "emem.drop"},))
    outer = FaultInjector(plan)
    inner = FaultInjector(plan)
    with outer:
        assert active_injector() is outer
        with inner:
            assert active_injector() is inner
        assert active_injector() is outer
    assert active_injector() is None


def test_injection_is_deterministic_given_seed():
    plan = FaultPlan(seed=11, rules=(
        {"site": "emem.drop", "probability": 0.3},))

    def drill(scope):
        emem = EmulationMemory(4)
        with FaultInjector(plan, scope=scope) as injector:
            for i in range(300):
                emem.store(message(i * 10, i))
        return injector.log

    assert drill("job-a") == drill("job-a")        # reproducible
    assert drill("job-a") != drill("job-b")        # but scope-isolated


# -- site coverage -----------------------------------------------------------

def test_emem_drop_site():
    plan = FaultPlan(rules=({"site": "emem.drop", "probability": 0.5},))
    emem = EmulationMemory(4)
    with FaultInjector(plan) as injector:
        for i in range(200):
            emem.store(message(i * 10, i))
    assert injector.injected["emem.drop"] > 0
    assert emem.injected_drops == injector.injected["emem.drop"]
    assert emem_invariant(emem)
    assert any(gap.kind == "injected" for gap in emem.gaps)
    assert emem.stats()["dropped_messages"] == emem.dropped_messages


def test_trace_corrupt_site_detected_by_crc():
    plan = FaultPlan(rules=({"site": "trace.corrupt", "max_faults": 5},))
    emem = EmulationMemory(4)
    with FaultInjector(plan) as injector:
        for i in range(20):
            emem.store(message(i * 10, i))
    assert injector.injected["trace.corrupt"] == 5
    assert emem.corrupt_dropped == 5               # all caught at the sink
    assert emem.message_count == 15
    assert emem_invariant(emem)
    assert any(gap.kind == "corrupt" for gap in emem.gaps)


def test_emem_overflow_site():
    plan = FaultPlan(rules=(
        {"site": "emem.overflow", "start_hit": 50, "max_faults": 1,
         "params": {"messages": 10}},))
    emem = EmulationMemory(4)
    with FaultInjector(plan) as injector:
        for i in range(100):
            emem.store(message(i * 10, i))
    assert injector.injected["emem.overflow"] == 1
    assert emem.injected_drops == 10
    assert emem.message_count == 90
    assert emem_invariant(emem)


def test_dap_saturate_site():
    plan = FaultPlan(rules=(
        {"site": "dap.saturate", "start_hit": 1000, "max_faults": 1,
         "params": {"cycles": 5000}},))
    device = make_device(streaming=True)
    session = StreamingSession(device, [spec.ipc(resolution=256)])
    with FaultInjector(plan) as injector:
        session.run(20_000)
    assert injector.injected["dap.saturate"] == 1
    assert device.dap.saturated_cycles == 5000
    assert device.dap.stats()["saturated_cycles"] == 5000


def test_dap_drop_site_marks_degradation():
    plan = FaultPlan(rules=({"site": "dap.drop", "probability": 0.2},))
    device = make_device(streaming=True)
    session = StreamingSession(device, [spec.ipc(resolution=128)])
    with FaultInjector(plan) as injector:
        stats = session.run(30_000)
        result = session.result()
    assert injector.injected["dap.drop"] > 0
    assert device.dap.dropped_messages == injector.injected["dap.drop"]
    assert stats.messages_lost >= device.dap.dropped_messages
    assert any(gap.source == "dap" for gap in device.trace_gaps())
    assert result.degraded_samples > 0


def test_counter_wrap_site_taints_samples():
    plan = FaultPlan(rules=(
        {"site": "counter.wrap", "probability": 0.25,
         "params": {"mask": 0x3}},))
    device = make_device()
    session = ProfilingSession(device, [spec.ipc(resolution=256)])
    with FaultInjector(plan) as injector:
        result = session.run(20_000)
    assert injector.injected["counter.wrap"] > 0
    structure = session.structures["tc.ipc"]
    assert structure.wraps == injector.injected["counter.wrap"]
    # a wrapped counter is a taint, not a gap: no messages were lost
    assert result.lost_messages == 0
    assert result.degraded_samples == injector.injected["counter.wrap"]


class _Always(Condition):
    def evaluate(self, cycle):
        return True


class _Never(Condition):
    def evaluate(self, cycle):
        return False


def test_trigger_lost_site():
    plan = FaultPlan(rules=({"site": "trigger.lost", "max_faults": 2},))
    trigger = Trigger("t", _Always())
    with FaultInjector(plan) as injector:
        for cycle in range(5):
            trigger.evaluate(cycle)
    assert injector.injected["trigger.lost"] == 2
    assert trigger.lost_injected == 2
    assert trigger.fire_count == 1          # suppressed twice, then fired


def test_trigger_spurious_site():
    plan = FaultPlan(rules=({"site": "trigger.spurious", "max_faults": 1},))
    fired = []
    trigger = Trigger("t", _Never(), on_enter=fired.append)
    with FaultInjector(plan) as injector:
        for cycle in range(5):
            trigger.evaluate(cycle)
    assert injector.injected["trigger.spurious"] == 1
    assert trigger.spurious_injected == 1
    assert fired == [0]                     # fired without a real condition


def test_worker_crash_and_hang_sites():
    job = CampaignJob(name="j1", domain="engine", device="tc1797",
                      cycles=2000).to_dict()
    crash = FaultPlan(rules=(
        {"site": "worker.crash", "match": {"attempt": 0}},)).to_dict()
    with pytest.raises(FaultInjected, match="injected worker crash"):
        execute_job(job, attempt=0, fault_plan=crash)
    payload = execute_job(job, attempt=1, fault_plan=crash)   # match misses
    assert payload["name"] == "j1"
    hang = FaultPlan(rules=(
        {"site": "worker.hang", "max_faults": 1,
         "params": {"seconds": 0.01}},)).to_dict()
    assert execute_job(job, fault_plan=hang)["name"] == "j1"


def test_every_catalogued_site_is_exercised():
    # checkpoint.corrupt / checkpoint.truncated fire in test_checkpoint.py
    covered = {
        "emem.drop", "emem.overflow", "trace.corrupt", "dap.saturate",
        "dap.drop", "counter.wrap", "trigger.lost", "trigger.spurious",
        "worker.crash", "worker.hang",
        "checkpoint.corrupt", "checkpoint.truncated",
    }
    assert covered == set(SITE_CATALOGUE)


# -- counter overflow semantics ----------------------------------------------

def test_counter_saturation_modes():
    from repro.soc.kernel.hub import EventHub

    hub = EventHub()
    sid = hub.register("ev")
    sat = RateCounterStructure("s", hub, ["ev"], resolution=10, width=4)
    hub.emit(sid, 100)                        # > 2^4 - 1
    assert sat.event_count == 15
    assert sat.saturations == 1
    sat.detach()

    wrap = RateCounterStructure("w", hub, ["ev"], resolution=10, width=4,
                                on_overflow="wrap")
    hub.emit(sid, 100)
    assert wrap.event_count == 100 % 16
    assert wrap.wraps == 1
    wrap.detach()

    strict = RateCounterStructure("r", hub, ["ev"], resolution=10, width=4,
                                  on_overflow="raise")
    with pytest.raises(CounterSaturationError):
        hub.emit(sid, 100)
    strict.detach()

    with pytest.raises(ConfigurationError):
        RateCounterStructure("x", hub, ["ev"], resolution=10,
                             on_overflow="explode")


# -- watchdog ----------------------------------------------------------------

def test_watchdog_cycle_deadline_is_fatal():
    device = make_device()
    watchdog = SimulationWatchdog(max_cycles=1000)
    with pytest.raises(WatchdogExpired) as excinfo:
        with watchdog.guard(device):
            device.run(50_000)
    assert not excinfo.value.retryable       # deterministic: never retried
    assert watchdog.expirations == 1
    # the guard removed itself: the device runs normally afterwards
    device.run(100)


def test_watchdog_wall_deadline_is_retryable():
    device = make_device()
    watchdog = SimulationWatchdog(max_wall_s=1e-9, check_interval=1)
    with pytest.raises(WatchdogExpired) as excinfo:
        with watchdog.guard(device):
            device.run(10_000)
    assert excinfo.value.retryable           # host-load dependent


def test_watchdog_validation():
    with pytest.raises(ConfigurationError):
        SimulationWatchdog()
    with pytest.raises(ConfigurationError):
        SimulationWatchdog(max_cycles=0)


# -- happy-path byte identity ------------------------------------------------

def test_installed_empty_plan_changes_nothing():
    baseline = ProfilingSession(
        make_device(), spec.engine_parameter_set()).run(10_000)
    device = make_device()
    session = ProfilingSession(device, spec.engine_parameter_set())
    with FaultInjector(FaultPlan(rules=())) as injector:
        chaos_free = session.run(10_000)
    # hooks evaluated everywhere, zero faults fired, identical bytes
    assert injector.total_injected == 0
    assert result_to_json(chaos_free) == result_to_json(baseline)


def test_degraded_export_round_trips():
    plan = FaultPlan(rules=({"site": "emem.drop", "probability": 0.3},))
    device = make_device()
    session = ProfilingSession(device, [spec.ipc(resolution=128)])
    with FaultInjector(plan):
        result = session.run(20_000)
    assert result.degraded_samples > 0
    text = result_to_json(result)
    loaded = result_from_json(text)
    assert result_to_json(loaded) == text
    assert loaded.degraded_samples == result.degraded_samples
    assert [g.to_list() for g in loaded.gaps] == \
        [g.to_list() for g in result.gaps]


# -- chaos campaign ----------------------------------------------------------

def test_campaign_under_fault_plan_retries_and_quarantines(tmp_path):
    jobs = [CampaignJob(name=f"job{i}", domain="engine", device="tc1797",
                        cycles=2000) for i in range(3)]
    jobs.append(CampaignJob(name="poisoned", domain="no-such-domain",
                            device="tc1797", cycles=2000))
    plan = FaultPlan(rules=(
        {"site": "worker.crash", "match": {"attempt": 0}},))
    runner = CampaignRunner(jobs, workers=0, max_retries=2,
                            cache_dir=str(tmp_path / "cache"),
                            fault_plan=plan)
    assert runner.cache is None              # chaos must not touch the cache
    report = runner.run()

    quarantined = report.quarantined
    assert [r["job"]["name"] for r in quarantined] == ["poisoned"]
    # attempt 0 was the injected (retryable) crash; attempt 1 hit the
    # deterministic ConfigurationError and quarantined WITHOUT spending
    # the rest of the retry budget (which would read attempts == 3)
    assert quarantined[0]["attempts"] == 2
    assert "unknown workload domain" in quarantined[0]["error"]

    ok = report.ok_records
    assert sorted(r["job"]["name"] for r in ok) == ["job0", "job1", "job2"]
    # every surviving job crashed on attempt 0 (injected) and recovered
    assert all(r["attempts"] == 2 for r in ok)


def test_chaos_campaign_payloads_match_clean_run():
    jobs = [CampaignJob(name=f"job{i}", domain="engine", device="tc1797",
                        cycles=2000) for i in range(2)]
    clean = CampaignRunner(jobs, workers=0).run()
    plan = FaultPlan(rules=(
        {"site": "worker.crash", "match": {"attempt": 0},
         "probability": 1.0},))
    chaos = CampaignRunner(jobs, workers=0, max_retries=2,
                           fault_plan=plan).run()
    clean_payloads = {r["job_id"]: r["payload"] for r in clean.ok_records}
    chaos_payloads = {r["job_id"]: r["payload"] for r in chaos.ok_records}
    # sim-level injection was off (no sim sites in the plan): surviving
    # retries reproduce the clean payloads exactly
    assert json.dumps(chaos_payloads, sort_keys=True) == \
        json.dumps(clean_payloads, sort_keys=True)
