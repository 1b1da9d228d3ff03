"""MCDS counter structures: on-chip rate generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profiling import ProfilingSession, spec
from repro.mcds.counters import CYCLES, RateCounterStructure, RawCounter
from repro.soc.config import tc1797_config
from repro.soc.kernel import signals
from repro.soc.kernel.hub import EventHub
from repro.workloads import EngineControlScenario


def make_structure(resolution=10, basis="instr", events=("ev",),
                   enabled=True):
    hub = EventHub()
    hub.register("ev")
    hub.register("instr")
    samples = []
    structure = RateCounterStructure("s", hub, events, resolution, basis,
                                     enabled)
    structure.sink = lambda cycle, s, value: samples.append((cycle, value))
    return hub, structure, samples


def test_sample_emitted_at_resolution():
    hub, structure, samples = make_structure(resolution=10)
    ev, instr = hub.signal_id("ev"), hub.signal_id("instr")
    for i in range(25):
        hub.cycle = i
        if i % 5 == 0:
            hub.emit(ev)
        hub.emit(instr)
    # two full windows of 10 instructions, 2 events each
    assert [v for _, v in samples] == [2, 2]
    assert structure.basis_count == 5   # residual of the third window


def test_basis_overshoot_closes_all_crossed_windows():
    hub, structure, samples = make_structure(resolution=10)
    instr = hub.signal_id("instr")
    hub.emit(instr, 25)   # superscalar burst crossing two windows
    assert len(samples) == 2
    assert structure.basis_count == 5


def test_cycles_basis_driven_by_on_cycle():
    hub = EventHub()
    hub.register("ev")
    samples = []
    structure = RateCounterStructure("ipc", hub, ("ev",), 4, CYCLES)
    structure.sink = lambda cycle, s, value: samples.append(value)
    ev = hub.signal_id("ev")
    for cycle in range(12):
        hub.cycle = cycle
        hub.emit(ev, 2)
        structure.on_cycle(cycle)
    assert samples == [8, 8, 8]


def test_disabled_structure_counts_nothing():
    hub, structure, samples = make_structure(enabled=False)
    hub.emit(hub.signal_id("ev"))
    hub.emit(hub.signal_id("instr"), 50)
    assert samples == []
    assert structure.event_count == 0


def test_disable_clears_partial_window():
    hub, structure, samples = make_structure(resolution=10)
    hub.emit(hub.signal_id("ev"), 3)
    hub.emit(hub.signal_id("instr"), 5)
    structure.disable()
    structure.enable()
    hub.emit(hub.signal_id("instr"), 10)
    assert [v for _, v in samples] == [0]   # fresh window after re-arm


def test_last_sample_exposed_for_triggers():
    hub, structure, samples = make_structure(resolution=10)
    assert structure.last_sample is None
    hub.emit(hub.signal_id("ev"), 7)
    hub.emit(hub.signal_id("instr"), 10)
    assert structure.last_sample == 7


def test_multiple_event_sources_summed():
    hub = EventHub()
    for name in ("a", "b", "instr"):
        hub.register(name)
    samples = []
    structure = RateCounterStructure("s", hub, ("a", "b"), 10, "instr")
    structure.sink = lambda c, s, v: samples.append(v)
    hub.emit(hub.signal_id("a"), 2)
    hub.emit(hub.signal_id("b"), 3)
    hub.emit(hub.signal_id("instr"), 10)
    assert samples == [5]


def test_detach_unsubscribes():
    hub, structure, samples = make_structure()
    structure.detach()
    hub.emit(hub.signal_id("ev"))
    hub.emit(hub.signal_id("instr"), 100)
    assert samples == []


def test_own_basis_member_joining_a_group_counts_the_closing_emission():
    # "own" counts its own basis signal and joins the group "first" opened;
    # then it is disabled and re-enabled mid-window.  The expected samples
    # are what one basis callback per structure gives.
    hub = EventHub()
    ev, instr = hub.register("ev"), hub.register("instr")
    samples = []

    def sink(cycle, structure, value):
        samples.append((cycle, structure.name, value))

    def drive(cycle, ev_count, instr_count):
        hub.cycle = cycle
        if ev_count:
            hub.emit(ev, ev_count)
        hub.emit(instr, instr_count)

    first = RateCounterStructure("first", hub, ("ev",), 4, "instr")
    first.sink = sink
    drive(1, 2, 3)
    own = RateCounterStructure("own", hub, ("instr",), 3, "instr")
    own.sink = sink
    drive(2, 1, 1)
    drive(3, 0, 2)              # closes own's window: 3 includes this 2
    drive(4, 1, 1)
    assert (own.basis_count, first.basis_count) == (1, 3)
    own.disable()
    drive(5, 2, 2)
    own.enable()
    drive(6, 0, 3)
    drive(7, 1, 7)              # burst: own closes two windows
    assert samples == [(2, "first", 3), (3, "own", 3), (5, "first", 3),
                       (6, "first", 0), (6, "own", 3), (7, "first", 1),
                       (7, "own", 7), (7, "own", 0)]
    assert (own.basis_count, first.basis_count) == (1, 3)


def profiled_engine(cycles_before=0):
    device = EngineControlScenario().build(tc1797_config(), {}, seed=2008)
    device.run(cycles_before)
    return device, ProfilingSession(device, spec.engine_parameter_set())


def test_instruction_basis_structures_share_one_subscription():
    device, session = profiled_engine()
    owners = [callback.__self__
              for callback in device.hub.subscribers(signals.TC_INSTR)]
    # tc.ipc counts instructions as its event; the eight structures on
    # the instruction basis sit behind one group callback
    assert owners[0] is session.structures["tc.ipc"]
    assert len(owners) == 2
    assert sorted(m.name for m in owners[1].members) == sorted(
        p.name for p in session.specs if p.basis == signals.TC_INSTR)


def test_profiled_device_windows_conserve_oracle_totals():
    device, session = profiled_engine(cycles_before=1000)
    start, start_cycle = device.hub.snapshot(), device.cycle
    result = session.run(12_345)
    now = device.hub.snapshot()
    for pspec in session.specs:
        structure = session.structures[pspec.name]
        events = sum(now[e] - start[e] for e in pspec.events)
        assert sum(result[pspec.name].value_list()) \
            + structure.event_count == events, pspec.name
        if pspec.basis == CYCLES:
            basis = device.cycle - start_cycle
        else:
            basis = now[pspec.basis] - start[pspec.basis]
        assert structure.basis_count == basis % pspec.resolution, pspec.name


def test_resolution_validation():
    hub = EventHub()
    with pytest.raises(ValueError):
        RateCounterStructure("s", hub, ("ev",), 0)


def test_raw_counter_accumulates():
    hub = EventHub()
    hub.register("ev")
    counter = RawCounter("c", hub, ("ev",))
    hub.emit(hub.signal_id("ev"), 4)
    hub.emit(hub.signal_id("ev"))
    assert counter.value == 5
    counter.reset()
    assert counter.value == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)),
                min_size=1, max_size=200),
       st.integers(1, 50))
def test_conservation_of_events(steps, resolution):
    """Sum of emitted samples + residual == total events (while enabled)."""
    hub = EventHub()
    hub.register("ev")
    hub.register("instr")
    samples = []
    structure = RateCounterStructure("s", hub, ("ev",), resolution, "instr")
    structure.sink = lambda c, s, v: samples.append(v)
    total_events = 0
    for ev_count, instr_count in steps:
        if ev_count:
            hub.emit(hub.signal_id("ev"), ev_count)
            total_events += ev_count
        if instr_count:
            hub.emit(hub.signal_id("instr"), instr_count)
    assert sum(samples) + structure.event_count == total_events
