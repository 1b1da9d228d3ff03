"""TriCore-like CPU timing model.

A pipelined, multi-scalar core: up to three instructions retire per cycle —
one integer-pipeline op, one load/store-pipeline op, and one loop/control
op, matching the TriCore 1.3 issue rules the paper leans on ("up to 3
within a clock cycle for TriCore").  Hardware loops close with zero taken
penalty (the loop pipeline); other taken control flow pays a refill
penalty.

The core publishes every performance-relevant event the MCDS can tap:
executed-instruction counts, stall cycles by cause, branch and context
switch events, interrupt entries.  A program-trace sink can additionally be
attached for MCDS program tracing; when detached the core runs identically
(non-intrusiveness is experiment E8).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..config import CpuConfig
from ..kernel import signals
from ..kernel.hub import EventHub
from ..kernel.simulator import FOREVER, Component
from ..memory.system import MemorySystem
from . import isa

# hot-loop constants: the issue loop compares opcodes and advances the PC
# hundreds of thousands of times per run, so bind the ISA names once here
# instead of re-reading module attributes per instruction
_IP = isa.IP
_LD = isa.LD
_ST = isa.ST
_BR = isa.BR
_JUMP = isa.JUMP
_LOOP = isa.LOOP
_CALL = isa.CALL
_RET = isa.RET
_RFE = isa.RFE
_INSTR_BYTES = isa.INSTR_BYTES


class TriCoreCpu(Component):
    name = "tricore"

    def __init__(self, cfg: CpuConfig, hub: EventHub, memory: MemorySystem,
                 icu=None, rng=None) -> None:
        self.cfg = cfg
        self.hub = hub
        self.memory = memory
        self.icu = icu
        self.rng = rng
        self.program: Optional[isa.Program] = None
        self.vectors: Dict[int, int] = {}   # srn id -> handler address
        self.trace = None                   # optional MCDS program-trace sink

        self.pc = 0
        self.halted = False
        #: debug run-control freeze (MCDS watch/breakpoints); unlike
        #: ``halted`` it also blocks interrupt entry
        self.debug_halt = False
        self.stall_until = 0
        self.current_priority = 0
        self._call_stack = []
        self._irq_stack = []
        self._states: Dict[int, object] = {}  # per-instruction behaviour state
        self._line = -1
        self._line_shift = 5  # 32-byte fetch groups

        self.retired = 0
        self.halt_cycles = 0
        #: retired instructions not yet published on TC_INSTR, or None
        #: outside a single-owner span whose hub horizon allows holding
        self._held: Optional[int] = None
        self._horizon = 0

        # cfg-derived latencies, folded once (configs are frozen after
        # build); the ICU's pending cell is shared in-place, so one list
        # read replaces the per-cycle highest() scan when nothing pends
        self._issue_width = cfg.issue_width
        self._branch_lat = 1 + cfg.branch_penalty
        self._cs_lat = 1 + cfg.context_switch_cycles
        self._irq_entry_lat = cfg.irq_entry_cycles + cfg.context_switch_cycles
        self._icu_cell = icu.pending_cell("tc") if icu is not None else None

        register = hub.register
        self._sid_instr = register(signals.TC_INSTR)
        self._sid_stall_fetch = register(signals.TC_STALL_FETCH)
        self._sid_stall_load = register(signals.TC_STALL_LOAD)
        self._sid_stall_store = register(signals.TC_STALL_STORE)
        self._sid_branch = register(signals.TC_BRANCH)
        self._sid_branch_taken = register(signals.TC_BRANCH_TAKEN)
        self._sid_csa = register(signals.TC_CSA)
        self._sid_irq_entry = register(signals.TC_IRQ_ENTRY)
        self._sid_irq_cycles = register(signals.TC_IRQ_CYCLES)
        self._rebind_hot()

    def _rebind_hot(self) -> None:
        """Fold the issue loop's per-tick collaborator binds into one tuple.

        One attribute read plus a sequence unpack replaces nine attribute
        walks per tick; rebuilt whenever a program is (re)loaded.  All
        members are construction-time-fixed except the instruction map.
        """
        self._hot_binds = (
            self._issue_width, self.memory, self.hub.emit, self.rng,
            self._line_shift,
            None if self.program is None else self.program.instructions,
            self._sid_instr, self._sid_branch, self._sid_branch_taken)

    # -- setup ---------------------------------------------------------------
    def load_program(self, program: isa.Program) -> None:
        self.program = program
        self.pc = program.entry
        self.halted = False
        self._line = -1
        self._rebind_hot()
        self.wake()

    def set_vector(self, srn_id: int, handler: str) -> None:
        """Bind a service request to a handler function (by symbol name)."""
        if self.program is None:
            raise RuntimeError("load a program before binding vectors")
        self.vectors[srn_id] = self.program.symbol(handler)
        self.wake()

    # -- behaviour-state helper -----------------------------------------------
    def _state_of(self, instr: isa.Instr, behaviour) -> object:
        key = id(instr)
        state = self._states.get(key)
        if state is None:
            state = behaviour.make_state()
            self._states[key] = state
        return state

    # -- interrupt entry --------------------------------------------------------
    def _try_interrupt(self, cycle: int) -> bool:
        if self.icu is None:
            return False
        srn = self.icu.highest("tc")
        if srn is None or srn.priority <= self.current_priority:
            return False
        handler = self.vectors.get(srn.id)
        if handler is None:
            return False
        self.icu.take(srn)
        src = self.pc
        self._irq_stack.append((self.pc, self.current_priority, self.halted))
        self.current_priority = srn.priority
        self.pc = handler
        self.halted = False
        self._line = -1
        self.stall_until = cycle + self._irq_entry_lat
        self.hub.emit(self._sid_irq_entry)
        self.hub.emit(self._sid_csa)
        if self.trace is not None:
            self.trace.on_discontinuity(cycle, src, handler, "irq")
        return True

    # -- quiescence contract -------------------------------------------------
    def _serviceable_pending(self) -> bool:
        """Would ``_try_interrupt`` take something right now?"""
        if self.icu is None:
            return False
        cell = self._icu_cell
        if cell is not None and not cell[0]:
            return False
        srn = self.icu.highest("tc")
        return (srn is not None and srn.priority > self.current_priority
                and srn.id in self.vectors)

    def idle_until(self, cycle: int):
        # priority > 0 emits TC_IRQ_CYCLES every cycle; debug_halt is
        # toggled by plain attribute writes (mcds.debug), so the core stays
        # hot in both states rather than requiring wake() discipline there
        if self.current_priority > 0 or self.debug_halt:
            return None
        if cycle < self.stall_until:
            # stalled cores do not poll the ICU, so the wait is opaque even
            # to a pending interrupt — sleep through it
            return self.stall_until
        if self.halted or self.program is None:
            # wait-for-interrupt (or no software at all): only an SRN
            # raise, a vector bind, or a program load can change anything.
            # The ICU poll is deferred to here so a busy core's idle probe
            # stays a handful of attribute reads.
            return None if self._serviceable_pending() else FOREVER
        return None

    def on_kernel_skip(self, start: int, stop: int) -> None:
        # the naive loop increments halt_cycles once per halted tick; a
        # stall-sleep (stall_until > start) or debug freeze would not
        if self.halted and not self.debug_halt \
                and self.current_priority == 0 and self.stall_until <= start:
            self.halt_cycles += stop - start

    # -- publication held across a single-owner span ---------------------------
    def begin_span(self) -> None:
        # every TC_INSTR subscriber bounds how late it can take its counts:
        # sum retired instructions and publish where the sum reaches that
        # bound, not every tick
        horizon = self.hub.horizon(self._sid_instr)
        if horizon:
            self._held = 0
            self._horizon = horizon

    def end_span(self) -> None:
        held = self._held
        if held is not None:
            self._held = None
            if held:
                self.hub.emit(self._sid_instr, held)

    # -- main clock tick ----------------------------------------------------------
    def tick(self, cycle: int):
        if self.debug_halt:
            return None
        if self.current_priority > 0:
            self.hub.emit(self._sid_irq_cycles)
        if cycle < self.stall_until:
            # inline idle bid (see Component.tick): a priority-0 stall is
            # opaque even to pending interrupts, so the wait can be slept
            # through; at priority > 0 the per-cycle IRQ-cycle emission
            # above must keep the core hot
            return None if self.current_priority > 0 else self.stall_until
        cell = self._icu_cell
        if (cell[0] if cell is not None else self.icu is not None) \
                and self._try_interrupt(cycle):
            return None
        if self.halted:
            self.halt_cycles += 1
            return None
        program = self.program
        if program is None:
            return None
        (width, memory, emit, rng, line_shift, instructions,
         sid_instr, sid_branch, sid_branch_taken) = self._hot_binds
        issued = 0
        ip_used = False
        ls_used = False
        ctl_used = False
        pc = self.pc
        start_pc = pc
        cur_line = self._line

        while issued < width:
            line = pc >> line_shift
            if line != cur_line:
                done = memory.fetch(cycle, pc, "tc")
                cur_line = line
                if done > cycle + 1:
                    self.stall_until = done
                    emit(self._sid_stall_fetch, done - cycle - 1)
                    break
            instr = instructions.get(pc)
            if instr is None:
                instr = program.at(pc)   # raises the decorated KeyError
            op = instr.op

            if op == _IP:
                # one integer-pipeline op per cycle (dual-pipeline issue:
                # IP + LS + loop can retire together, never two IP ops)
                if ip_used:
                    break
                ip_used = True
                pc += _INSTR_BYTES
                issued += 1
                continue

            if op == _LD or op == _ST:
                if ls_used:
                    break
                ls_used = True
                gen = instr.addr_gen
                addr = gen.next(self._state_of(instr, gen), rng)
                issued += 1
                if op == _LD:
                    done = memory.read(cycle, addr, "tc")
                    pc += _INSTR_BYTES
                    if done > cycle + 1:
                        self.stall_until = done
                        emit(self._sid_stall_load, done - cycle - 1)
                        break
                else:
                    done = memory.write(cycle, addr, "tc")
                    pc += _INSTR_BYTES
                    if done > cycle + 1:
                        self.stall_until = done
                        emit(self._sid_stall_store, done - cycle - 1)
                        break
                continue

            if op == "halt":
                self.halted = True
                issued_halt_pc = pc
                pc = issued_halt_pc  # resume at the halt on wakeup-return
                break

            # control ops
            if ctl_used:
                break
            ctl_used = True
            issued += 1
            src = pc

            if op == _BR:
                pattern = instr.pattern
                taken = pattern.taken(self._state_of(instr, pattern), rng)
                emit(sid_branch)
                if taken:
                    emit(sid_branch_taken)
                    pc = instr.target
                    cur_line = -1
                    self.stall_until = cycle + self._branch_lat
                    if self.trace is not None:
                        self.trace.on_discontinuity(cycle, src, pc, "br")
                    break
                pc += _INSTR_BYTES
                continue

            if op == _JUMP:
                emit(sid_branch)
                emit(sid_branch_taken)
                pc = instr.target
                cur_line = -1
                self.stall_until = cycle + self._branch_lat
                if self.trace is not None:
                    self.trace.on_discontinuity(cycle, src, pc, "br")
                break

            if op == _LOOP:
                pattern = instr.pattern
                taken = pattern.taken(self._state_of(instr, pattern), rng)
                emit(sid_branch)
                if taken:
                    # loop pipeline: zero-cycle taken loop-close
                    emit(sid_branch_taken)
                    pc = instr.target
                    cur_line = -1
                    if self.trace is not None:
                        self.trace.on_discontinuity(cycle, src, pc, "loop")
                    break
                pc += _INSTR_BYTES
                continue

            if op == _CALL:
                self._call_stack.append(pc + _INSTR_BYTES)
                pc = instr.target
                cur_line = -1
                emit(self._sid_csa)
                self.stall_until = cycle + self._cs_lat
                if self.trace is not None:
                    self.trace.on_discontinuity(cycle, src, pc, "call")
                break

            if op == _RET:
                if not self._call_stack:
                    raise RuntimeError(
                        f"RET with empty call stack at 0x{pc:08x}")
                pc = self._call_stack.pop()
                cur_line = -1
                emit(self._sid_csa)
                self.stall_until = cycle + self._cs_lat
                if self.trace is not None:
                    self.trace.on_discontinuity(cycle, src, pc, "ret")
                break

            if op == _RFE:
                if not self._irq_stack:
                    raise RuntimeError(
                        f"RFE with empty interrupt stack at 0x{pc:08x}")
                pc, self.current_priority, self.halted = self._irq_stack.pop()
                cur_line = -1
                emit(self._sid_csa)
                self.stall_until = cycle + self._cs_lat
                if self.trace is not None:
                    self.trace.on_discontinuity(cycle, src, pc, "rfe")
                break

            raise ValueError(f"unknown opcode {op!r} at 0x{pc:08x}")

        self._line = cur_line
        self.pc = pc
        if issued:
            self.retired += issued
            held = self._held
            if held is None:
                emit(sid_instr, issued)
            else:
                held += issued
                if held < self._horizon:
                    self._held = held
                else:
                    # the held sum reaches a subscriber's horizon this
                    # tick (a window closes, a counter overflows): publish
                    self._held = 0
                    emit(sid_instr, held)
                    self._horizon = self.hub.horizon(sid_instr)
            if self.trace is not None:
                self.trace.on_cycle(cycle, start_pc, issued)
        # inline idle bid, mirroring idle_until for the common end-of-tick
        # states; anything subtler (halt wake conditions, debug freeze)
        # defers to idle_until via None
        if self.current_priority > 0 or self.halted or self.debug_halt:
            return None
        stall = self.stall_until
        return stall if stall > cycle + 1 else cycle + 1

    def reset(self) -> None:
        if self.program is not None:
            self.pc = self.program.entry
        self.halted = False
        self.debug_halt = False
        self.stall_until = 0
        self.current_priority = 0
        self._call_stack.clear()
        self._irq_stack.clear()
        self._states.clear()
        self._line = -1
        self.retired = 0
        self.halt_cycles = 0

    # -- checkpoint ----------------------------------------------------------
    def snapshot_state(self) -> dict:
        # behaviour states live keyed by id(instr), which does not survive
        # a process boundary; remap to instruction addresses (the program
        # image is rebuilt identically from the job spec/seed)
        states = {}
        if self.program is not None:
            for addr, instr in self.program.instructions.items():
                state = self._states.get(id(instr))
                if state is not None:
                    states[addr] = list(state)
        return {
            "pc": self.pc,
            "halted": self.halted,
            "debug_halt": self.debug_halt,
            "stall_until": self.stall_until,
            "current_priority": self.current_priority,
            "call_stack": list(self._call_stack),
            "irq_stack": [tuple(frame) for frame in self._irq_stack],
            "states": states,
            "vectors": dict(self.vectors),
            "line": self._line,
            "retired": self.retired,
            "halt_cycles": self.halt_cycles,
        }

    def restore_state(self, state: dict) -> None:
        self.pc = state["pc"]
        self.halted = state["halted"]
        self.debug_halt = state["debug_halt"]
        self.stall_until = state["stall_until"]
        self.current_priority = state["current_priority"]
        self._call_stack = list(state["call_stack"])
        self._irq_stack = [tuple(frame) for frame in state["irq_stack"]]
        self.vectors = dict(state["vectors"])
        self._states.clear()
        if self.program is not None:
            for addr, behaviour_state in state["states"].items():
                self._states[id(self.program.at(addr))] = \
                    list(behaviour_state)
        # the fetch-line latch must round-trip exactly: invalidating it
        # would issue a spurious re-fetch the uninterrupted run never does
        self._line = state["line"]
        self.retired = state["retired"]
        self.halt_cycles = state["halt_cycles"]
