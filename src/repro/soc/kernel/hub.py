"""Event hub: the wiring between SoC components and observation hardware.

Real silicon routes performance-event wires from each block to the MCDS
observation inputs (paper Section 3: "tap directly performance relevant event
sources").  The hub models that wiring: components ``emit`` named signals,
and observers (MCDS counters, oracle totals) receive them in the same cycle.

Emission is deliberately cheap — integer-indexed list lookups, no string
keys, no allocation, and subscriber dispatch skipped entirely when nothing
listens — because branches, stalls and memory accesses still emit on a
large share of simulated cycles.  Hub-heavy tick methods additionally
cache ``hub.emit`` in a local before their issue loops, saving the
attribute walk per emission.  The most frequent signal, the TriCore's
retired-instruction count, is published once per window instead of once
per tick wherever the deferral contract below allows.

Deferral contract
-----------------

The hardware counts in silicon and costs something only when a window
closes; a subscriber that only adds counts up between such points can say
so.  ``subscribe(name, callback, horizon)`` takes an optional zero-argument
``horizon`` callable: the subscriber promises that any sum of fewer than
``horizon()`` units delivered late, in one call, leaves it in the state the
per-emission calls would have.  A sum that reaches the horizon may change
what the subscriber does (close a window, saturate), so it must be
published in the very emission that reaches it.  :meth:`EventHub.horizon`
is the minimum over a signal's subscribers, :data:`UNBOUNDED` when nobody
listens, and 0 — publish every emission — while any subscriber declares no
horizon.  A producer may hold a signal's counts only while nothing else
runs, and publishes them before anything else can observe the subscribers
(the kernel's fused single-owner span; see ``Component.begin_span``).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

#: horizon of a signal no subscriber bounds: any sum may be held
UNBOUNDED = 2 ** 63


def unbounded() -> int:
    """Horizon of a subscriber that only adds counts up."""
    return UNBOUNDED


class EventHub:
    """Registry and fan-out point for performance-event signals.

    Every signal also feeds a cumulative *oracle* counter.  The oracle is not
    part of the modelled hardware; it is the ground truth that tests and the
    model-validation experiments compare MCDS-measured rates against.
    """

    def __init__(self) -> None:
        #: current simulation cycle, published by the simulator each step so
        #: that hub-driven observers can timestamp without a tick of their own
        self.cycle = 0
        self._ids: Dict[str, int] = {}
        self._names: List[str] = []
        self._subs: List[List[Callable[[int], None]]] = []
        #: per signal, the horizon each subscriber declared (None: none),
        #: in dispatch order
        self._declared: List[List[Optional[Callable[[], int]]]] = []
        #: per signal, its subscribers' horizons, or None while one of them
        #: declares none: refreshed on (un)subscribe, read per span
        self._horizons: List[Optional[tuple]] = []
        self.totals: List[int] = []

    # -- registration --------------------------------------------------------
    def register(self, name: str) -> int:
        """Register (or look up) a signal and return its integer id."""
        sid = self._ids.get(name)
        if sid is None:
            sid = len(self._names)
            self._ids[name] = sid
            self._names.append(name)
            self._subs.append([])
            self._declared.append([])
            self._horizons.append(())
            self.totals.append(0)
        return sid

    def register_all(self, names) -> None:
        for name in names:
            self.register(name)

    def signal_id(self, name: str) -> int:
        """Return the id of an already-registered signal.

        Raises ``KeyError`` for unknown names: a typo in a profiling spec
        must fail loudly, not silently count nothing.
        """
        return self._ids[name]

    def signal_name(self, sid: int) -> str:
        return self._names[sid]

    @property
    def names(self):
        return tuple(self._names)

    # -- wiring ---------------------------------------------------------------
    def subscribe(self, name: str, callback: Callable[[int], None],
                  horizon: Optional[Callable[[], int]] = None) -> None:
        """Attach ``callback(count)`` to a signal; called on every emission.

        ``horizon``, if given, declares how late the callback can take its
        counts (see the module's deferral contract).
        """
        sid = self.register(name)
        self._subs[sid].append(callback)
        self._declared[sid].append(horizon)
        self._refresh(sid)

    def unsubscribe(self, name: str, callback: Callable[[int], None]) -> None:
        sid = self.signal_id(name)
        index = self._subs[sid].index(callback)
        del self._subs[sid][index]
        del self._declared[sid][index]
        self._refresh(sid)

    def _refresh(self, sid: int) -> None:
        declared = self._declared[sid]
        self._horizons[sid] = None if None in declared else tuple(declared)

    def subscribers(self, name: str) -> tuple:
        """The callbacks attached to a signal, in dispatch order."""
        return tuple(self._subs[self.register(name)])

    def horizon(self, sid: int) -> int:
        """Fewest units of ``sid`` that must be published in the emission
        that reaches them: 0 while a subscriber declares no horizon,
        :data:`UNBOUNDED` when no subscriber bounds it."""
        marks = self._horizons[sid]
        if marks is None:
            return 0
        return min((mark() for mark in marks), default=UNBOUNDED)

    # -- hot path --------------------------------------------------------------
    def emit(self, sid: int, count: int = 1) -> None:
        """Emit ``count`` occurrences of signal ``sid`` this cycle."""
        self.totals[sid] += count
        subs = self._subs[sid]
        if subs:
            for cb in subs:
                cb(count)

    # -- oracle access ---------------------------------------------------------
    def total(self, name: str) -> int:
        """Cumulative oracle count of a signal since construction."""
        return self.totals[self.signal_id(name)]

    def snapshot(self) -> Dict[str, int]:
        """Oracle totals of all signals, by name."""
        return {name: self.totals[i] for i, name in enumerate(self._names)}

    def reset(self) -> None:
        """Clear oracle totals; registrations and subscriptions persist."""
        self.cycle = 0
        for i in range(len(self.totals)):
            self.totals[i] = 0

    # -- checkpoint ------------------------------------------------------------
    def snapshot_state(self) -> Dict:
        """Published cycle + oracle totals, with names for validation.

        Registrations and subscriptions are structural: a same-spec device
        rebuild recreates them identically, so only the counters (and the
        name list that proves the rebuild matches) are serialised.
        """
        return {"cycle": self.cycle, "names": list(self._names),
                "totals": list(self.totals)}

    def restore_state(self, state: Dict) -> None:
        from ...errors import CheckpointError
        names = state["names"]
        if names != self._names:
            raise CheckpointError(
                "checkpoint hub signals do not match this device: "
                f"{len(names)} recorded vs {len(self._names)} registered")
        self.cycle = state["cycle"]
        self.totals[:] = state["totals"]
