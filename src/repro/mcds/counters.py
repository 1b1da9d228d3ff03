"""MCDS counter structures: on-chip rate generation.

The heart of the Enhanced System Profiling method (paper Section 5): one
counter accumulates occurrences of an event source, another counts the
*resolution basis* — clock cycles for IPC, executed instructions for every
other event rate.  Each time the basis counter reaches the configured
resolution, the event count is emitted as a single compact trace message
and both counters reset.

A structure can be disabled and re-enabled at runtime by trigger logic;
that is what "connect multiple counter structures" means — a
high-resolution structure armed only while a low-resolution one crosses a
threshold (see :mod:`repro.core.profiling.multires`).

Like the silicon, which counts in hardware and costs one trace message per
closed window, the model pays per emitted sample: every structure counting
on one basis signal shares a single hub subscription (:class:`_BasisGroup`)
that only does work when the nearest window closes.  Cycle-basis windows
are clocked by the MCDS, which sleeps between them.

Hardware counters are finite: a ``width``-bit event counter that overflows
within one resolution window either **saturates** at its maximum,
**wraps** modulo 2^width, or **raises** — explicit, configurable
semantics instead of Python's silent unbounded ints.  Either way the
affected sample is *tainted* and the profiling layer marks its window
degraded.  Fault site: ``counter.wrap``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..errors import ConfigurationError, CounterSaturationError
from ..faults import injector as _fi
from ..faults.injector import fault_point
from ..soc.kernel.hub import EventHub

#: pseudo basis meaning "per clock cycle" (IPC-style measurement)
CYCLES = "cycles"

#: overflow disciplines for a finite-width event counter
SATURATE = "saturate"
WRAP = "wrap"
RAISE = "raise"

#: ``_BasisGroup.left`` while no member is enabled: no emission closes a window
_NEVER = 2 ** 63


class _BasisGroup:
    """The one hub subscription of all structures on one basis signal.

    An emission only adds to ``pending`` and compares it with ``left``, the
    basis units until the nearest enabled member window closes.  Members
    are brought up to date by :meth:`sync` when that window closes, and
    before anything reads or changes a member's window, so every sample
    and every ``basis_count`` equals what per-structure counting gives.
    The group is found through the hub's subscriber list, so it lives
    exactly as long as the device that owns the hub.
    """

    def __init__(self, hub: EventHub, basis: str) -> None:
        self.hub = hub
        self.basis = basis
        self.members: list = []
        self.pending = 0
        self.left = _NEVER

    @classmethod
    def join(cls, structure: "RateCounterStructure") -> "_BasisGroup":
        hub, basis = structure.hub, structure.basis
        for callback in hub.subscribers(basis):
            group = getattr(callback, "__self__", None)
            if isinstance(group, cls):
                group.sync()
                hub.unsubscribe(basis, group.on_basis)
                break
        else:
            group = cls(hub, basis)
        # (re)subscribed last: a member whose events include its basis
        # signal counts the current emission before its window closes
        hub.subscribe(basis, group.on_basis)
        group.members.append(structure)
        group.sync()
        return group

    def leave(self, structure: "RateCounterStructure") -> None:
        self.sync()
        self.members.remove(structure)
        if not self.members:
            self.hub.unsubscribe(self.basis, self.on_basis)

    def on_basis(self, count: int) -> None:
        pending = self.pending + count
        self.pending = pending
        if pending >= self.left:
            self.sync()

    def sync(self) -> None:
        """Credit pending units to the enabled members, closing their due
        windows in allocation order, and re-arm ``left``."""
        pending = self.pending
        self.pending = 0
        left = _NEVER
        for member in self.members:
            if member.enabled:
                count = member._basis_count + pending
                member._basis_count = count
                resolution = member.resolution
                while count >= resolution:
                    member._sample()
                    count = member._basis_count
                if resolution - count < left:
                    left = resolution - count
        self.left = left


class RateCounterStructure:
    """One event counter + one resolution-basis counter + message emit."""

    def __init__(self, name: str, hub: EventHub, events: Iterable[str],
                 resolution: int, basis: str = "tc.instr_executed",
                 enabled: bool = True, width: int = 32,
                 on_overflow: str = SATURATE) -> None:
        if resolution < 1:
            raise ConfigurationError("resolution must be >= 1")
        if not 1 <= width <= 64:
            raise ConfigurationError("counter width must be within [1, 64]")
        if on_overflow not in (SATURATE, WRAP, RAISE):
            raise ConfigurationError(
                f"unknown overflow mode {on_overflow!r}; expected "
                f"'{SATURATE}', '{WRAP}' or '{RAISE}'")
        self.name = name
        self.hub = hub
        self.events = tuple(events)
        self.basis = basis
        self.resolution = resolution
        self.enabled = enabled
        self.width = width
        self.on_overflow = on_overflow
        self._max = (1 << width) - 1
        self.event_count = 0
        self._basis_count = 0
        self.samples_emitted = 0
        self.saturations = 0
        self.wraps = 0
        #: value of the most recent emitted sample — comparator input
        self.last_sample: Optional[int] = None
        #: overflow cause ("saturate"/"wrap"/"injected") of the most recent
        #: sample, or None if it was clean — read by the MCDS to taint the
        #: emitted message
        self.last_sample_tainted: Optional[str] = None
        self._taint: Optional[str] = None
        #: sink receiving ``(cycle, structure, value)`` on every sample
        self.sink: Optional[Callable[[int, "RateCounterStructure", int], None]] = None

        for event in self.events:
            hub.subscribe(event, self._on_event)
        self._group = None if basis == CYCLES else _BasisGroup.join(self)

    @property
    def basis_count(self) -> int:
        """Basis units counted in the open window."""
        self._sync()
        return self._basis_count

    def _sync(self) -> None:
        if self._group is not None:
            self._group.sync()

    # -- hub callbacks -----------------------------------------------------
    def _on_event(self, count: int) -> None:
        if not self.enabled:
            return
        self.event_count += count
        if self.event_count > self._max:
            if self.on_overflow == SATURATE:
                self.event_count = self._max
                self.saturations += 1
                self._taint = SATURATE
            elif self.on_overflow == WRAP:
                self.event_count &= self._max
                self.wraps += 1
                self._taint = WRAP
            else:
                raise CounterSaturationError(
                    f"counter {self.name!r} overflowed its {self.width}-bit "
                    f"range within one resolution window")

    def on_cycle(self, cycle: int) -> None:
        """Called by the MCDS once per cycle; drives cycle-basis structures."""
        if self.basis == CYCLES and self.enabled:
            self._basis_count += 1
            if self._basis_count >= self.resolution:
                self._sample()

    def skip_cycles(self, cycles: int) -> None:
        """Credit cycle-basis ticks the kernel skipped; none closes a window."""
        if self.enabled:
            self._basis_count += cycles

    # -- sampling -------------------------------------------------------------
    def _sample(self) -> None:
        value = self.event_count
        if _fi._active is not None:
            action = fault_point("counter.wrap", counter=self.name,
                                 sample=self.samples_emitted)
            if action is not None:
                # the hardware counter wrapped mid-window: the emitted value
                # is the truncated remainder, and the sample is tainted
                value &= int(action.params.get("mask", 0xFF))
                self.wraps += 1
                self._taint = "injected"
        self.last_sample = value
        self.last_sample_tainted = self._taint
        self._taint = None
        self.samples_emitted += 1
        self.event_count = 0
        self._basis_count -= self.resolution
        if self.sink is not None:
            self.sink(self.hub.cycle, self, value)

    # -- trigger-side control ----------------------------------------------------
    # every change to a window is framed by two group syncs: the first
    # credits what the old state counted, the second re-arms the group
    def enable(self) -> None:
        self._sync()
        self.enabled = True
        self._sync()

    def disable(self) -> None:
        """Disable and clear partial counts (a fresh window on re-arm)."""
        self._sync()
        self.enabled = False
        self.event_count = 0
        self._basis_count = 0
        self._sync()

    def detach(self) -> None:
        """Unsubscribe from the hub (free the counter resources)."""
        for event in self.events:
            self.hub.unsubscribe(event, self._on_event)
        if self._group is not None:
            self._group.leave(self)
            self._group = None

    def reset(self) -> None:
        self._sync()
        self.event_count = 0
        self._basis_count = 0
        self.samples_emitted = 0
        self.saturations = 0
        self.wraps = 0
        self.last_sample = None
        self.last_sample_tainted = None
        self._taint = None
        self._sync()

    # -- checkpoint ----------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {"enabled": self.enabled,
                "event_count": self.event_count,
                "basis_count": self.basis_count,
                "samples_emitted": self.samples_emitted,
                "saturations": self.saturations,
                "wraps": self.wraps,
                "last_sample": self.last_sample,
                "last_sample_tainted": self.last_sample_tainted,
                "taint": self._taint}

    def restore_state(self, state: dict) -> None:
        self._sync()
        self.enabled = state["enabled"]
        self.event_count = state["event_count"]
        self._basis_count = state["basis_count"]
        self.samples_emitted = state["samples_emitted"]
        self.saturations = state["saturations"]
        self.wraps = state["wraps"]
        self.last_sample = state["last_sample"]
        self.last_sample_tainted = state["last_sample_tainted"]
        self._taint = state["taint"]
        self._sync()


class RawCounter:
    """A plain free-running event counter (no rate generation).

    Models the conventional approach the paper improves upon: the external
    tool periodically samples two such counters over the debug interface to
    compute a rate — the costly baseline of experiment E4.  Also used as a
    trigger input ("counters" in the MCDS trigger block).
    """

    def __init__(self, name: str, hub: EventHub, events: Iterable[str]) -> None:
        self.name = name
        self.hub = hub
        self.events = tuple(events)
        self.value = 0
        for event in self.events:
            hub.subscribe(event, self._on_event)

    def _on_event(self, count: int) -> None:
        self.value += count

    def detach(self) -> None:
        for event in self.events:
            self.hub.unsubscribe(event, self._on_event)

    def reset(self) -> None:
        self.value = 0

    # -- checkpoint ----------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {"value": self.value}

    def restore_state(self, state: dict) -> None:
        self.value = state["value"]
