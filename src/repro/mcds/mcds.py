"""The MCDS block: trigger, trace qualification, and trace generation.

Owns the counter structures, raw counters, trigger programs, and trace
units, and routes every generated trace message into the emulation memory.
It is a pure observer: it subscribes to event signals and the CPU trace
hook but never initiates bus traffic or changes component state, which is
what makes profiling non-intrusive (experiment E8 checks this property
cycle-exactly).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError, ResourceExhaustedError
from ..soc.device import Soc
from ..soc.kernel.simulator import FOREVER, Component
from . import counters as counters_mod
from .messages import RATE_SAMPLE, MessageFactory, TraceMessage
from .trace import BusTraceUnit, DataTraceUnit, ProgramTraceUnit, TraceFanout
from .trigger import Trigger, TriggerStateMachine


class Mcds(Component):
    name = "mcds"

    #: counter structures available in hardware (the MCDS is "configurable
    #: and scalable"; this is the AUDO FUTURE sizing)
    MAX_COUNTER_STRUCTURES = 16

    def __init__(self, soc: Soc, timestamp_enabled: bool = True) -> None:
        self.soc = soc
        self.hub = soc.hub
        self.factory = MessageFactory(timestamp_enabled)
        self.rate_counters: List[counters_mod.RateCounterStructure] = []
        self.raw_counters: List[counters_mod.RawCounter] = []
        self.triggers: List[Trigger] = []
        self.state_machines: List[TriggerStateMachine] = []
        self.program_traces: List[ProgramTraceUnit] = []
        self.data_traces: List[DataTraceUnit] = []
        self.bus_traces: List[BusTraceUnit] = []
        self._cycle_basis: List[counters_mod.RateCounterStructure] = []
        self.sink = None                 # EMEM store callable, set by the ED
        self.messages_by_kind: Dict[str, int] = {}
        self.bits_by_kind: Dict[str, int] = {}

    # -- message path -----------------------------------------------------
    def deliver(self, msg: TraceMessage) -> None:
        self.messages_by_kind[msg.kind] = self.messages_by_kind.get(msg.kind, 0) + 1
        self.bits_by_kind[msg.kind] = self.bits_by_kind.get(msg.kind, 0) + msg.bits
        if self.sink is not None:
            self.sink(msg)

    @property
    def total_messages(self) -> int:
        return sum(self.messages_by_kind.values())

    @property
    def total_bits(self) -> int:
        return sum(self.bits_by_kind.values())

    # -- configuration ---------------------------------------------------------
    def add_rate_counter(self, name: str, events, resolution: int,
                         basis: str = "tc.instr_executed",
                         enabled: bool = True, width: int = 32,
                         on_overflow: str = counters_mod.SATURATE
                         ) -> counters_mod.RateCounterStructure:
        """Allocate a counter structure that emits rate-sample messages."""
        if len(self.rate_counters) >= self.MAX_COUNTER_STRUCTURES:
            raise ResourceExhaustedError(
                f"all {self.MAX_COUNTER_STRUCTURES} counter structures in use")
        structure = counters_mod.RateCounterStructure(
            name, self.hub, events, resolution, basis, enabled,
            width, on_overflow)
        structure.sink = self._on_rate_sample
        self.rate_counters.append(structure)
        if basis == counters_mod.CYCLES:
            # woken before the new window joins: waking credits the span
            # slept so far, which predates that window
            self.wake()
            self._cycle_basis.append(structure)
        return structure

    def remove_rate_counter(self, structure) -> None:
        """Free a counter structure and its hardware slot."""
        structure.detach()
        self.rate_counters.remove(structure)
        if structure in self._cycle_basis:
            self._cycle_basis.remove(structure)

    def _on_rate_sample(self, cycle: int, structure, value: int) -> None:
        # every closed window comes through here, so this books the totals
        # itself and hands the message straight to the sink; every other
        # kind goes through deliver()
        msg = self.factory.rate_sample(cycle, structure.name, value)
        if structure.last_sample_tainted is not None:
            # the counter overflowed (or a drill wrapped it) inside this
            # window: the value is untrustworthy, flag it for the decoder
            msg.extra = {"tainted": structure.last_sample_tainted}
        counts = self.messages_by_kind
        counts[RATE_SAMPLE] = counts.get(RATE_SAMPLE, 0) + 1
        bits = self.bits_by_kind
        bits[RATE_SAMPLE] = bits.get(RATE_SAMPLE, 0) + msg.bits
        if self.sink is not None:
            self.sink(msg)

    def add_raw_counter(self, name: str, events) -> counters_mod.RawCounter:
        counter = counters_mod.RawCounter(name, self.hub, events)
        self.raw_counters.append(counter)
        return counter

    def add_trigger(self, trigger: Trigger) -> Trigger:
        self.triggers.append(trigger)
        self.wake()
        return trigger

    def add_state_machine(self, machine: TriggerStateMachine
                          ) -> TriggerStateMachine:
        self.state_machines.append(machine)
        self.wake()
        return machine

    def add_program_trace(self, core: str = "tc", cycle_accurate: bool = False,
                          sync_period: int = 256,
                          enabled: bool = True) -> ProgramTraceUnit:
        """Attach a program-trace unit to a core's trace hook.

        Both cores can be traced in parallel (paper Figure 5: "can record
        the trace of one or several cores in parallel"); their messages
        share the EMEM with a common, order-preserving timestamp stream.
        """
        ptu = ProgramTraceUnit(f"ptu.{core}", self.factory, self.deliver,
                               cycle_accurate, sync_period, enabled)
        if core == "tc":
            cpu = self.soc.cpu
        elif core == "pcp":
            cpu = self.soc.pcp
        else:
            raise ConfigurationError(
                f"program trace supports cores 'tc' and 'pcp', got {core!r}")
        if cpu.trace is None:
            cpu.trace = TraceFanout()
        cpu.trace.add(ptu)
        self.program_traces.append(ptu)
        return ptu

    def add_data_trace(self, address_range: Tuple[int, int],
                       masters: Optional[Tuple[str, ...]] = None,
                       writes_only: bool = False,
                       enabled: bool = True) -> DataTraceUnit:
        dtu = DataTraceUnit(f"dtu{len(self.data_traces)}", self.factory,
                            self.deliver, address_range, masters, writes_only,
                            enabled)
        self.soc.memory.watchers.append(dtu)
        self.data_traces.append(dtu)
        return dtu

    def add_bus_trace(self, signal: str, enabled: bool = True) -> BusTraceUnit:
        btu = BusTraceUnit(f"btu.{signal}", self.hub, signal, self.factory,
                           self.deliver, enabled)
        self.bus_traces.append(btu)
        return btu

    # -- run control (debug) ----------------------------------------------------
    def add_watchpoint(self, address_range, writes_only: bool = False,
                       masters=None, action=None):
        """Data watchpoint: halts the TriCore on a guarded access."""
        from .debug import Watchpoint
        watchpoint = Watchpoint(self.soc.cpu, address_range, writes_only,
                                masters, action)
        self.soc.memory.watchers.append(watchpoint)
        return watchpoint

    def add_breakpoint(self, address: int, length: int = 4):
        """Code breakpoint: halts the TriCore when execution reaches it."""
        from .debug import Breakpoint
        breakpoint_ = Breakpoint(self.soc.cpu, address, length)
        self.triggers.append(breakpoint_.trigger)
        self.wake()
        return breakpoint_

    # -- per-cycle work -----------------------------------------------------------
    def idle_until(self, cycle: int):
        # everything else the MCDS does is event-driven through hub
        # subscriptions and trace hooks; triggers and trigger state machines
        # need every cycle, cycle-basis windows only the one that closes them
        if self.triggers or self.state_machines:
            return None
        wake = FOREVER
        for structure in self._cycle_basis:
            if not structure.enabled:
                return None      # enable() does not wake the MCDS
            close = cycle + structure.resolution - structure.basis_count - 1
            if close < wake:
                wake = close
        return wake

    def on_kernel_skip(self, start: int, stop: int) -> None:
        for structure in self._cycle_basis:
            structure.skip_cycles(stop - start)

    def observable_state(self) -> int:
        # trace bytes for the strict-equivalence auditor: a quiescent tick
        # must not generate messages (totals alone would miss delivery)
        return self.total_messages + self.total_bits

    def tick(self, cycle: int) -> None:
        for structure in self._cycle_basis:
            structure.on_cycle(cycle)
        for trigger in self.triggers:
            trigger.evaluate(cycle)
        for machine in self.state_machines:
            machine.evaluate(cycle)

    def reset(self) -> None:
        self.factory.reset()
        for structure in self.rate_counters:
            structure.reset()
        for counter in self.raw_counters:
            counter.reset()
        for trigger in self.triggers:
            trigger.reset()
        for machine in self.state_machines:
            machine.reset()
        for unit in (self.program_traces + self.data_traces + self.bus_traces):
            unit.reset()
        self.messages_by_kind.clear()
        self.bits_by_kind.clear()

    # -- checkpoint ----------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "factory": self.factory.snapshot_state(),
            "rate_counters": [s.snapshot_state() for s in self.rate_counters],
            "raw_counters": [c.snapshot_state() for c in self.raw_counters],
            "triggers": [t.snapshot_state() for t in self.triggers],
            "state_machines": [m.snapshot_state()
                               for m in self.state_machines],
            "program_traces": [u.snapshot_state()
                               for u in self.program_traces],
            "data_traces": [u.snapshot_state() for u in self.data_traces],
            "bus_traces": [u.snapshot_state() for u in self.bus_traces],
            "messages_by_kind": dict(self.messages_by_kind),
            "bits_by_kind": dict(self.bits_by_kind),
        }

    def restore_state(self, state: dict) -> None:
        self.factory.restore_state(state["factory"])
        for structure, entry in zip(self.rate_counters,
                                    state["rate_counters"]):
            structure.restore_state(entry)
        for counter, entry in zip(self.raw_counters, state["raw_counters"]):
            counter.restore_state(entry)
        for trigger, entry in zip(self.triggers, state["triggers"]):
            trigger.restore_state(entry)
        for machine, entry in zip(self.state_machines,
                                  state["state_machines"]):
            machine.restore_state(entry)
        for unit, entry in zip(self.program_traces, state["program_traces"]):
            unit.restore_state(entry)
        for unit, entry in zip(self.data_traces, state["data_traces"]):
            unit.restore_state(entry)
        for unit, entry in zip(self.bus_traces, state["bus_traces"]):
            unit.restore_state(entry)
        self.messages_by_kind = dict(state["messages_by_kind"])
        self.bits_by_kind = dict(state["bits_by_kind"])
