"""Cycle-stepped simulation core with quiescence-aware scheduling.

The SoC model is clocked: every component exposes ``tick(cycle)`` and the
simulator calls them in a fixed, registration-defined order each CPU cycle.
The order encodes the intra-cycle causality we care about (peripherals raise
service requests before the interrupt router runs, masters issue bus traffic
before the MCDS samples the cycle, ...).

All time is kept in CPU-clock cycles.  Slower clock domains (the peripheral
bus, the flash array) are expressed as multi-cycle latencies/occupancies via
:class:`~repro.soc.kernel.resource.TimedResource`, which is how the real
parts behave from the CPU's point of view as well.

Scheduling model
----------------

Most components are *quiescent* most of the time: a timer between events, a
DMA engine with no active channel, a CPU sitting in a wait-for-interrupt
halt.  Ticking them every cycle buys nothing but Python dispatch cost.  The
kernel therefore splits components into a **hot set** (ticked every cycle,
in registration order) and a **sleep heap** keyed by wake cycle:

* after each tick the kernel asks ``idle_until(next_cycle)``; a component
  that can prove it will not change state before cycle ``W`` is moved to
  the heap and not ticked again until ``W`` (or an explicit ``wake()``);
* when the hot set is empty the clock fast-forwards straight to the next
  wake point — no per-cycle Python at all;
* external pokes (an SRN raise, a DMA trigger, a late compare write) call
  ``wake()``, which re-inserts the sleeper *in registration-order position*
  so intra-cycle arbitration is preserved exactly;
* a component whose per-cycle tick accumulates state while quiescent (the
  CPU's ``halt_cycles``) receives the skipped span through
  ``on_kernel_skip(start, stop)`` before it runs again, so external
  observations match the naive loop cycle-for-cycle.

The optimized kernel is an *observationally equivalent scheduler*, not a
new semantics: spurious wakes are always safe (a quiescent tick is a
no-op), and ``Simulator(strict_equivalence=True)`` mechanically audits
every skip claim against the naive all-tick loop (see below).

Three kernel modes exist: ``"quiescent"`` (default), ``"naive"`` (the
original every-component-every-cycle loop, kept as the measured baseline),
and the strict-equivalence audit mode.  :func:`kernel_mode` /
:func:`set_default_kernel` select the mode for subsequently built
simulators without threading a parameter through device constructors.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional

from ...errors import (ConfigurationError, KernelEquivalenceError,
                       WatchdogExpired)
from ...obs import runtime as _obs
from .hub import EventHub

#: sleep-forever sentinel returned by ``idle_until``: the component cannot
#: change state again without an external ``wake()``
FOREVER = 2 ** 63

_KERNELS = ("quiescent", "naive", "strict")

#: kernel mode used by simulators built without an explicit ``kernel=``
DEFAULT_KERNEL = "quiescent"


def set_default_kernel(mode: str) -> str:
    """Set the module-wide default kernel mode; returns the previous one."""
    global DEFAULT_KERNEL
    if mode not in _KERNELS:
        raise ConfigurationError(
            f"unknown kernel mode {mode!r}; choose from {_KERNELS}")
    previous = DEFAULT_KERNEL
    DEFAULT_KERNEL = mode
    return previous


@contextmanager
def kernel_mode(mode: str):
    """Build simulators under a different default kernel mode::

        with kernel_mode("naive"):
            device = scenario.build(config, params, seed=seed)
    """
    previous = set_default_kernel(mode)
    try:
        yield
    finally:
        set_default_kernel(previous)


class Component:
    """Base class for clocked SoC blocks."""

    #: short instance name used in topology dumps and reports
    name: str = "component"

    #: the scheduler this component is registered with (set by the kernel);
    #: ``wake()`` routes through it
    _kernel: Optional["Simulator"] = None

    def tick(self, cycle: int):
        """Advance one CPU cycle.  Default: combinational block, no state.

        A tick may return an *inline idle bid*: the same value
        :meth:`idle_until` would return for ``cycle + 1``.  The quiescent
        kernel then skips the separate ``idle_until`` round-trip for that
        cycle — worthwhile for components ticking hundreds of thousands
        of times per run.  Returning ``None`` (the default) means "ask
        ``idle_until`` as usual"; returning ``cycle + 1`` means "keep me
        hot without asking".  The two sources must agree: strict mode
        audits claims against :meth:`idle_until` only.
        """

    def reset(self) -> None:
        """Return to power-on state.  Components with state must override."""

    # -- quiescence contract -------------------------------------------------
    def idle_until(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which ``tick`` may do something.

        Called by the kernel after each tick with the *next* cycle it would
        run.  Return ``None`` to keep ticking every cycle, or an absolute
        cycle ``W > cycle`` to promise that every tick in ``[cycle, W)``
        would be a no-op — no event emission, no observable state change
        beyond what :meth:`on_kernel_skip` reconstructs.  ``FOREVER`` means
        "only an external :meth:`wake` can make me runnable again".
        Conservative answers are always safe; optimistic ones are caught by
        ``strict_equivalence`` runs.
        """
        return None

    def wake(self) -> None:
        """External poke: make a sleeping component runnable again.

        Safe to call at any time (no-op when the component is hot or not
        registered).  Anything that changes a sleeper's inputs — raising a
        service request, triggering a DMA channel, programming a compare
        cell — must call this on the affected component.
        """
        kernel = self._kernel
        if kernel is not None:
            kernel._wake_component(self)

    def on_kernel_skip(self, start: int, stop: int) -> None:
        """The kernel skipped this component's ticks in ``[start, stop)``.

        Called just before the component runs again (and when the simulator
        settles at a step boundary).  Override to reconstruct per-cycle
        bookkeeping the skipped ticks would have done (e.g. the CPU's
        ``halt_cycles``).
        """

    def begin_span(self) -> None:
        """The quiescent kernel made this component the clock's sole owner.

        Until the matching :meth:`end_span` nothing else ticks, so the
        component may hold back hub emissions whose subscribers declared a
        horizon (see :mod:`~repro.soc.kernel.hub`), publishing each sum in
        the tick that reaches ``hub.horizon()``.
        """

    def end_span(self) -> None:
        """Publish every count held since :meth:`begin_span`.

        Called before any other component ticks again, and before a step
        returns, so nothing is ever pending outside the span.
        """

    def observable_state(self) -> int:
        """Cheap scalar fingerprint of externally visible state.

        The strict-equivalence auditor samples this (plus the event-hub
        oracle totals) around every tick it predicted to be quiescent.
        Override in components whose observable output bypasses the hub
        (trace-byte producers).
        """
        return 0

    # -- checkpoint contract -------------------------------------------------
    def snapshot_state(self) -> dict:
        """All mutable state as a codec-serialisable dict.

        The contract is *completeness*: restoring this dict into a
        freshly built twin (same spec, same seed) and running on must be
        byte-identical to never having stopped.  Values must survive
        :mod:`repro.checkpoint.codec` — plain scalars, lists, tuples,
        dicts; object references must be mapped to stable identities
        (an instruction's address, a channel's number) because ``id()``
        does not survive a process boundary.  Stateless/combinational
        components inherit this empty default.
        """
        return {}

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`snapshot_state`, applied to a fresh twin.

        Restore may leave scheduler-facing caches (armed lists, heap
        hints) rebuilt rather than bit-equal: the quiescent kernel
        restarts every component hot after a restore, and spurious ticks
        are no-ops by the kernel's own equivalence contract.
        """


class _Slot:
    """Scheduler bookkeeping for one registered component."""

    __slots__ = ("comp", "index", "tick", "idle", "observe", "has_idle",
                 "asleep", "wake_at", "slept_from", "skipped", "sleeps",
                 "wakes", "created_at")

    def __init__(self, comp: Component, index: int, created_at: int) -> None:
        self.comp = comp
        self.index = index
        self.tick = comp.tick                 # pre-bound hot-path callable
        self.idle = comp.idle_until
        self.observe = comp.observable_state
        # components that never override idle_until are not queried at all
        self.has_idle = type(comp).idle_until is not Component.idle_until
        self.asleep = False
        self.wake_at = 0
        self.slept_from = 0
        self.skipped = 0                      # cycles never ticked (or, in
        self.sleeps = 0                       # strict mode, audited no-ops)
        self.wakes = 0
        self.created_at = created_at


class Simulator:
    """Owns the clock, the event hub, and the tick order of all components."""

    def __init__(self, seed: int = 2008, kernel: Optional[str] = None,
                 strict_equivalence: bool = False) -> None:
        self.cycle = 0
        self.hub = EventHub()
        self.components: List[Component] = []
        self.seed = seed
        self._streams: dict = {}
        if kernel is None:
            kernel = DEFAULT_KERNEL
        if kernel not in _KERNELS:
            raise ConfigurationError(
                f"unknown kernel mode {kernel!r}; choose from {_KERNELS}")
        if kernel == "strict":
            strict_equivalence = True
        self.kernel = "naive" if kernel == "naive" else "quiescent"
        self.strict_equivalence = strict_equivalence
        self._mode = "strict" if strict_equivalence else self.kernel
        # scheduler state (built lazily at the first step)
        self._slots: List[_Slot] = []
        self._slot_by_id: Dict[int, _Slot] = {}
        self._roster: Optional[List[Component]] = None
        self._hot: List[_Slot] = []
        self._heap: list = []
        self._in_cycle = False
        self._tick_pos = 0
        self._now = 0
        self._profiler = None                 # set by kprof.KernelProfiler
        self._wall_s = 0.0
        self._cycles_run = 0
        # non-component state providers included in checkpoints (the
        # memory system, the EMEM, ...), keyed stably by the device
        # builder; insertion order is the restore order
        self._state_extras: Dict[str, object] = {}

    # -- construction -----------------------------------------------------
    def add(self, component: Component) -> Component:
        """Register a component; tick order == registration order."""
        self.components.append(component)
        return component

    def attach_state(self, key: str, provider) -> None:
        """Register a non-component object for checkpoint inclusion.

        ``provider`` implements ``snapshot_state()``/``restore_state()``
        like a :class:`Component`; device builders attach blocks that are
        not clocked (the memory system, the EMEM buffer) so a checkpoint
        covers the whole device, not just the tick roster.
        """
        if key in self._state_extras:
            raise ConfigurationError(
                f"state provider {key!r} already attached")
        self._state_extras[key] = provider

    def rng(self, stream: str) -> random.Random:
        """Deterministic per-purpose random stream.

        Separate named streams keep workload behaviour stable when unrelated
        components add or remove their own randomness — essential for the
        non-intrusiveness experiment (E8), which compares two runs cycle by
        cycle.
        """
        rng = self._streams.get(stream)
        if rng is None:
            rng = random.Random(f"{self.seed}/{stream}")
            self._streams[stream] = rng
        return rng

    # -- scheduler plumbing --------------------------------------------------
    def _sync_roster(self) -> None:
        """(Re)build slots when the component list changed.

        The roster can mutate between steps — ``SimulationWatchdog.guard``
        splices itself directly into ``components`` — so each step entry
        compares against the list the slots were built from.  Sleeping
        carried-over components stay asleep; their heap entries are rebuilt
        because registration indices may have shifted.
        """
        comps = self.components
        if self._roster == comps:
            return
        old = {id(slot.comp): slot for slot in self._slots}
        slots: List[_Slot] = []
        profiler = self._profiler
        for index, comp in enumerate(comps):
            slot = old.get(id(comp))
            if slot is None:
                slot = _Slot(comp, index, self.cycle)
            else:
                slot.index = index
            if profiler is not None:
                slot.tick = profiler._wrap(comp)
            else:
                slot.tick = comp.tick
            comp._kernel = self
            slots.append(slot)
        self._slots = slots
        self._slot_by_id = {id(slot.comp): slot for slot in slots}
        self._roster = list(comps)
        self._hot = [slot for slot in slots if not slot.asleep]
        heap = [(slot.wake_at, slot.index) for slot in slots if slot.asleep]
        heapify(heap)
        self._heap = heap

    def _force_rebuild(self) -> None:
        self._roster = None

    def _insert_hot(self, slot: _Slot) -> int:
        """Insert a slot into the hot list at its registration-order spot."""
        hot = self._hot
        index = slot.index
        lo, hi = 0, len(hot)
        while lo < hi:
            mid = (lo + hi) // 2
            if hot[mid].index < index:
                lo = mid + 1
            else:
                hi = mid
        hot.insert(lo, slot)
        return lo

    def _credit(self, slot: _Slot, stop: int) -> None:
        start = slot.slept_from
        if stop > start:
            slot.skipped += stop - start
            slot.comp.on_kernel_skip(start, stop)
            slot.slept_from = stop

    def _wake_component(self, comp: Component) -> None:
        slot = self._slot_by_id.get(id(comp))
        if slot is None or not slot.asleep:
            return
        slot.asleep = False
        slot.wakes += 1
        if self._mode == "strict":
            return                 # strict ticks everyone; flag-only
        if self._in_cycle:
            cycle = self._now
            pos = self._insert_hot(slot)
            if pos <= self._tick_pos:
                # the waker ticks *after* this component in registration
                # order, so in the naive loop the sleeper's tick this cycle
                # already happened (as a no-op): first real tick is next
                # cycle, and the cursor shifts with the insertion
                self._tick_pos += 1
                stop = cycle + 1
            else:
                # the waker precedes the sleeper: the naive loop would tick
                # the sleeper later this same cycle, so we do too
                stop = cycle
        else:
            stop = self.cycle
            self._insert_hot(slot)
        self._credit(slot, stop)

    def _settle(self, end: int) -> None:
        """Bring sleepers' skip accounting (and ``hub.cycle``) up to ``end``.

        Run at every step boundary so externally read state — the CPU's
        ``halt_cycles``, the hub's published cycle — matches what the naive
        loop would show after the same number of cycles.
        """
        for slot in self._slots:
            if slot.asleep:
                self._credit(slot, end)
        if end > 0:
            self.hub.cycle = end - 1

    # -- execution ----------------------------------------------------------
    def step(self, cycles: int = 1) -> None:
        """Run the clock for ``cycles`` CPU cycles."""
        self._advance(self.cycle + cycles, None, 1)

    def run_until(self, predicate: Callable[["Simulator"], bool],
                  max_cycles: int = 10_000_000, check_every: int = 1) -> int:
        """Step until ``predicate(sim)`` holds; returns cycles executed.

        ``check_every`` strides predicate evaluation across fast-forwarded
        quiescent spans: state is frozen there, so the predicate is a pure
        function of the clock and, on a hit, an exact back-off rescan of
        the last stride window recovers the precise crossing cycle.  Hot
        cycles always evaluate the predicate per cycle (component ticks
        dominate the cost, and state changes make striding unsound), so
        the returned count is bit-identical to the ``check_every=1``
        baseline for any stride.
        """
        if check_every < 1:
            raise ConfigurationError("check_every must be >= 1")
        start = self.cycle
        if predicate(self):
            return 0
        if not self._advance(start + max_cycles, predicate, check_every):
            raise WatchdogExpired(
                f"run_until exceeded {max_cycles} cycles without "
                f"predicate becoming true")
        return self.cycle - start

    def _advance(self, target: int, predicate, check_every: int) -> bool:
        """Run to ``target`` (or a predicate hit); True on predicate hit."""
        if target <= self.cycle:
            return False
        began = self.cycle
        # telemetry is sampled once per advance span (not per cycle): the
        # per-cycle loops below stay untouched, so a disabled slot costs
        # one attribute check per step()/run_until() call
        tel = _obs._active
        obs_t0 = tel.tracer.now_us() if tel is not None else 0.0
        t0 = time.perf_counter()
        try:
            self._sync_roster()
            if self._mode == "quiescent":
                return self._advance_quiescent(target, predicate, check_every)
            return self._advance_lockstep(target, predicate, check_every)
        finally:
            self._wall_s += time.perf_counter() - t0
            self._cycles_run += self.cycle - began
            if tel is not None:
                tel.sim_advance(self._mode, began, self.cycle, obs_t0)

    def _advance_quiescent(self, target: int, predicate,
                           check_every: int) -> bool:
        slots = self._slots
        hot = self._hot
        heap = self._heap
        hub = self.hub
        insert_hot = self._insert_hot
        credit = self._credit
        has_pred = predicate is not None
        c = self.cycle
        while c < target:
            # wake sleepers that are due this cycle (lazy heap entries:
            # slot.wake_at is authoritative, stale pairs are discarded)
            while heap and heap[0][0] <= c:
                wake_at, index = heappop(heap)
                slot = slots[index] if index < len(slots) else None
                if slot is not None and slot.asleep \
                        and slot.wake_at == wake_at:
                    slot.asleep = False
                    insert_hot(slot)
                    credit(slot, c)

            if not hot:
                # quiescent span: fast-forward to the next wake point; no
                # per-cycle hub publication, no ticks, frozen state
                span_end = target
                if heap and heap[0][0] < span_end:
                    span_end = heap[0][0]
                if predicate is None:
                    c = span_end
                    self.cycle = c
                    continue
                while c < span_end:
                    step = check_every
                    if step > span_end - c:
                        step = span_end - c
                    c += step
                    self.cycle = c
                    hub.cycle = c - 1
                    if predicate(self):
                        # exact back-off: state is frozen across the span,
                        # so rewinding the pure clock to rescan the last
                        # stride window is sound
                        for v in range(c - step + 1, c):
                            self.cycle = v
                            hub.cycle = v - 1
                            if predicate(self):
                                c = v
                                break
                        self.cycle = c
                        self._settle(c)
                        return True
                self.cycle = c
                continue

            if not has_pred and len(hot) == 1:
                # fused single-owner span: one slot (typically the CPU)
                # owns the clock, so the per-cycle cost collapses to the
                # tick and its idle bid.  The loop runs until the next
                # heap wake is due, a mid-tick wake grows the hot set, or
                # the owner goes properly to sleep; until then the owner
                # may hold its hub publications (begin_span / end_span).
                # A short nap that would end before anyone else is due
                # never touches the heap at all: the clock jumps in place
                # and the skip is credited immediately, exactly as a wake
                # would have.
                slot = hot[0]
                tick = slot.tick
                idle = slot.idle if slot.has_idle else None
                owner = slot.comp
                span_end = target
                if heap and heap[0][0] < span_end:
                    span_end = heap[0][0]
                self._tick_pos = 0
                self._in_cycle = True
                owner.begin_span()
                try:
                    # self.cycle is written once on exit (see finally):
                    # nothing observes it mid-advance — components get the
                    # cycle as a tick argument, wakes read _now, and event
                    # observers timestamp off hub.cycle
                    while c < span_end:
                        hub.cycle = c
                        self._now = c
                        wake_at = tick(c)
                        if len(hot) != 1:
                            # a mid-tick wake joined this cycle: publish
                            # what the owner holds, place its own sleep
                            # bid, finish the cycle in registration
                            # order, and rejoin the outer loop
                            owner.end_span()
                            pos = self._tick_pos
                            if wake_at is None and idle is not None:
                                wake_at = idle(c + 1)
                            if wake_at is not None and wake_at > c + 1:
                                hot.pop(pos)
                                slot.asleep = True
                                slot.wake_at = wake_at
                                slot.slept_from = c + 1
                                slot.sleeps += 1
                                heappush(heap, (wake_at, slot.index))
                            else:
                                pos += 1
                            self._tick_cycle(c, pos)
                            c += 1
                            break
                        if wake_at is None and idle is not None:
                            wake_at = idle(c + 1)
                        if wake_at is not None and wake_at > c + 1:
                            if wake_at <= span_end:
                                # sole-owner nap ending before any
                                # sleeper is due: skip straight to
                                # the wake cycle in place
                                slot.skipped += wake_at - (c + 1)
                                slot.sleeps += 1
                                slot.comp.on_kernel_skip(c + 1, wake_at)
                                c = wake_at
                                continue
                            hot.pop(0)
                            slot.asleep = True
                            slot.wake_at = wake_at
                            slot.slept_from = c + 1
                            slot.sleeps += 1
                            heappush(heap, (wake_at, slot.index))
                            c += 1
                            break
                        c += 1
                finally:
                    owner.end_span()
                    self._in_cycle = False
                    self.cycle = c
                continue

            # hot cycle: tick the hot set in registration order, letting
            # each has_idle component bid for sleep right after its tick
            hub.cycle = c
            self._now = c
            self._in_cycle = True
            try:
                self._tick_cycle(c, 0)
            finally:
                self._in_cycle = False
            c += 1
            self.cycle = c
            if has_pred and predicate(self):
                self._settle(c)
                return True
        self._settle(target)
        return False

    def _tick_cycle(self, c: int, pos: int) -> None:
        """Tick ``self._hot[pos:]`` for cycle ``c`` in registration order,
        letting each ``has_idle`` component bid for sleep right after its
        tick.  The caller owns the cycle framing (``hub.cycle``,
        ``_now``, ``_in_cycle``)."""
        hot = self._hot
        heap = self._heap
        while pos < len(hot):
            slot = hot[pos]
            self._tick_pos = pos
            wake_at = slot.tick(c)
            pos = self._tick_pos         # mid-tick wakes may shift it
            if wake_at is None and slot.has_idle:
                wake_at = slot.idle(c + 1)
            if wake_at is not None and wake_at > c + 1:
                hot.pop(pos)
                slot.asleep = True
                slot.wake_at = wake_at
                slot.slept_from = c + 1
                slot.sleeps += 1
                heappush(heap, (wake_at, slot.index))
                continue                 # next slot slid into pos
            pos += 1

    def _advance_lockstep(self, target: int, predicate,
                          check_every: int) -> bool:
        """Naive all-tick loop; in strict mode it additionally audits every
        cycle the quiescent scheduler would have skipped."""
        slots = self._slots
        hub = self.hub
        totals = hub.totals
        strict = self._mode == "strict"
        c = self.cycle
        while c < target:
            hub.cycle = c
            self._now = c
            for slot in slots:
                if strict and slot.asleep:
                    if c < slot.wake_at:
                        # the quiescent kernel would not run this tick;
                        # prove it is a no-op (oracle totals + the
                        # component's own trace-byte fingerprint)
                        before = sum(totals) + slot.observe()
                        slot.tick(c)
                        if sum(totals) + slot.observe() != before:
                            raise KernelEquivalenceError(
                                f"{slot.comp.name!r} claimed quiescence "
                                f"until cycle {slot.wake_at} but its tick "
                                f"at cycle {c} changed observable state")
                        # the audited tick did this cycle's work: _settle
                        # must not replay it through on_kernel_skip
                        slot.skipped += 1
                        slot.slept_from = c + 1
                        continue
                    slot.asleep = False
                slot.tick(c)
                if strict and slot.has_idle:
                    wake_at = slot.idle(c + 1)
                    if wake_at is not None and wake_at > c + 1:
                        slot.asleep = True
                        slot.wake_at = wake_at
                        slot.slept_from = c + 1
                        slot.sleeps += 1
            c += 1
            self.cycle = c
            if predicate is not None and predicate(self):
                return True
        return False

    # -- introspection -------------------------------------------------------
    def kernel_stats(self) -> Dict:
        """Scheduler efficiency counters (see docs/architecture.md).

        Always available at zero hot-path cost: per-component tick counts
        are derived from the sleep accounting, not counted per tick.
        Wall-time shares appear when a :class:`~repro.soc.kernel.kprof.
        KernelProfiler` is attached.
        """
        cycle = self.cycle
        wall = self._wall_s
        prof = self._profiler
        components = []
        for slot in self._slots:
            alive = cycle - slot.created_at
            pending = cycle - slot.slept_from \
                if slot.asleep and cycle > slot.slept_from else 0
            skipped = slot.skipped + pending
            entry = {
                "name": slot.comp.name,
                "ticks": alive - skipped,
                "skipped": skipped,
                "skip_ratio": skipped / alive if alive else 0.0,
                "sleeps": slot.sleeps,
                "wakes": slot.wakes,
                "asleep": slot.asleep,
            }
            if prof is not None:
                cell = prof._cells.get(id(slot.comp))
                if cell is not None:
                    entry["wall_s"] = cell[2]
            components.append(entry)
        if prof is not None:
            total_comp_wall = sum(e.get("wall_s", 0.0) for e in components)
            if total_comp_wall > 0:
                for entry in components:
                    entry["wall_share"] = \
                        entry.get("wall_s", 0.0) / total_comp_wall
        return {
            "kernel": self._mode,
            "cycles": self._cycles_run,
            "wall_s": wall,
            "cycles_per_sec": self._cycles_run / wall if wall > 0 else 0.0,
            "components": components,
        }

    # -- checkpoint ----------------------------------------------------------
    def snapshot_state(self) -> Dict:
        """Complete simulation state as one codec-serialisable dict.

        Settles skip accounting first (so sleeper-side bookkeeping like
        the CPU's ``halt_cycles`` is materialised to the current cycle),
        then captures the clock, every RNG stream, the hub oracle, every
        component, and every attached extra.  Scheduler state (hot set,
        sleep heap, skip counters) is deliberately *not* captured: the
        quiescent kernel restarts everyone hot after a restore, and
        spurious ticks of quiescent components are no-ops by contract —
        so the scheduler reconverges without affecting any observable.
        """
        self._sync_roster()
        self._settle(self.cycle)
        return {
            "cycle": self.cycle,
            "seed": self.seed,
            "streams": {name: rng.getstate()
                        for name, rng in sorted(self._streams.items())},
            "hub": self.hub.snapshot_state(),
            "components": [
                {"name": comp.name, "state": comp.snapshot_state()}
                for comp in self.components
            ],
            "extras": {key: provider.snapshot_state()
                       for key, provider in self._state_extras.items()},
        }

    def restore_state(self, state: Dict) -> None:
        """Apply a :meth:`snapshot_state` dict to this (same-spec) sim.

        Validates the component roster and hub wiring against the
        snapshot before touching anything, so a checkpoint from a
        different device spec is rejected whole rather than half-applied.
        """
        from ...errors import CheckpointError
        recorded = [entry["name"] for entry in state["components"]]
        current = [comp.name for comp in self.components]
        if recorded != current:
            raise CheckpointError(
                f"checkpoint component roster {recorded} does not match "
                f"this device ({current}); was it built from the same "
                f"spec and seed?")
        extras = state.get("extras", {})
        missing = set(extras) - set(self._state_extras)
        if missing:
            raise CheckpointError(
                f"checkpoint has state for unattached providers: "
                f"{sorted(missing)}")
        self.hub.restore_state(state["hub"])
        self.cycle = state["cycle"]
        for name, rng_state in state["streams"].items():
            self.rng(name).setstate(rng_state)
        for comp, entry in zip(self.components, state["components"]):
            comp.restore_state(entry["state"])
        for key, extra_state in extras.items():
            self._state_extras[key].restore_state(extra_state)
        # drop scheduler state: everyone restarts hot (mirrors reset());
        # sleepers re-earn their heap slots on the first post-restore tick
        self._slots = []
        self._slot_by_id = {}
        self._roster = None
        self._hot = []
        self._heap = []

    def checkpoint(self, path: str, meta: Optional[Dict] = None) -> str:
        """Write the full simulation state to a checkpoint file.

        The file is CRC-guarded, schema-versioned, and atomically
        replaced (see :mod:`repro.checkpoint.format`); restoring it with
        :meth:`restore` on a freshly built same-spec device and running
        on is byte-identical to an uninterrupted run.
        """
        from ...checkpoint import save_checkpoint
        tel = _obs._active
        body = dict(meta or {})
        body.setdefault("kind", "simulator")
        body["cycle"] = self.cycle
        body["seed"] = self.seed
        if tel is not None:
            with tel.span("checkpoint.save", cat="checkpoint",
                          cycle=self.cycle):
                return save_checkpoint(path, self.snapshot_state(), body)
        return save_checkpoint(path, self.snapshot_state(), body)

    def restore(self, path: str) -> Dict:
        """Load a checkpoint file into this simulator; returns its meta.

        Raises :class:`~repro.errors.CheckpointError` (retryable) for a
        corrupt, truncated, schema-incompatible, or wrong-device file —
        and guarantees no state was modified in that case.
        """
        from ...checkpoint import load_checkpoint
        tel = _obs._active
        body, meta = load_checkpoint(path)
        if tel is not None:
            with tel.span("checkpoint.restore", cat="checkpoint",
                          cycle=body.get("cycle", 0)):
                self.restore_state(body)
        else:
            self.restore_state(body)
        if tel is not None:
            tel.checkpoint_restored("success", path, cycle=self.cycle)
        return meta

    def reset(self) -> None:
        self.cycle = 0
        # re-seed streams in place: components hold references to these
        # Random objects, so clearing the dict would leave them with
        # advanced state and break run-to-run reproducibility
        for name, rng in self._streams.items():
            rng.seed(f"{self.seed}/{name}")
        self.hub.reset()
        for comp in self.components:
            comp.reset()
        # drop scheduler state: every component restarts hot, and the
        # efficiency counters restart with the run they describe
        self._slots = []
        self._slot_by_id = {}
        self._roster = None
        self._hot = []
        self._heap = []
        self._wall_s = 0.0
        self._cycles_run = 0
