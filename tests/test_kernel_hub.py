"""EventHub: registration, fan-out, oracle totals, deferral horizons."""

import pytest

from repro.soc.kernel.hub import UNBOUNDED, EventHub, unbounded


def test_register_returns_stable_ids():
    hub = EventHub()
    a = hub.register("a")
    b = hub.register("b")
    assert a != b
    assert hub.register("a") == a
    assert hub.signal_id("a") == a
    assert hub.signal_name(b) == "b"


def test_unknown_signal_raises():
    hub = EventHub()
    with pytest.raises(KeyError):
        hub.signal_id("missing")


def test_emit_updates_totals():
    hub = EventHub()
    sid = hub.register("x")
    hub.emit(sid)
    hub.emit(sid, 5)
    assert hub.total("x") == 6


def test_subscribe_receives_counts():
    hub = EventHub()
    sid = hub.register("x")
    seen = []
    hub.subscribe("x", seen.append)
    hub.emit(sid, 3)
    hub.emit(sid)
    assert seen == [3, 1]


def test_multiple_subscribers_all_called():
    hub = EventHub()
    sid = hub.register("x")
    first, second = [], []
    hub.subscribe("x", first.append)
    hub.subscribe("x", second.append)
    hub.emit(sid, 2)
    assert first == [2] and second == [2]


def test_unsubscribe_stops_delivery():
    hub = EventHub()
    sid = hub.register("x")
    seen = []
    hub.subscribe("x", seen.append)
    hub.unsubscribe("x", seen.append)
    hub.emit(sid)
    assert seen == []
    assert hub.total("x") == 1  # oracle still counts


def test_subscribe_registers_if_needed():
    hub = EventHub()
    seen = []
    hub.subscribe("lazy", seen.append)
    hub.emit(hub.signal_id("lazy"), 4)
    assert seen == [4]


def test_snapshot_covers_all_signals():
    hub = EventHub()
    hub.register("a")
    sid = hub.register("b")
    hub.emit(sid, 7)
    snap = hub.snapshot()
    assert snap == {"a": 0, "b": 7}


def test_names_in_registration_order():
    hub = EventHub()
    hub.register("z")
    hub.register("a")
    assert hub.names == ("z", "a")


class _TripwireSubs(list):
    """A subscriber list that fails the test if anyone iterates it."""

    def __iter__(self):
        raise AssertionError("dispatch attempted on a subscriber-free signal")


def test_emit_without_subscribers_skips_dispatch_entirely():
    hub = EventHub()
    sid = hub.register("quiet.signal")
    # empty -> falsy, so the `if subs:` guard must short-circuit before
    # any iteration; a regression that always loops trips the wire
    hub._subs[sid] = _TripwireSubs()
    hub.emit(sid)
    hub.emit(sid, 5)
    assert hub.totals[sid] == 6


def test_unsubscribe_restores_subscriber_free_fast_path():
    hub = EventHub()
    sid = hub.register("transient.signal")
    seen = []
    hub.subscribe("transient.signal", seen.append)
    hub.emit(sid)
    hub.unsubscribe("transient.signal", seen.append)
    hub._subs[sid] = _TripwireSubs(hub._subs[sid])
    hub.emit(sid)
    assert seen == [1]
    assert hub.totals[sid] == 2


# -- deferral contract ---------------------------------------------------------
def test_horizon_unbounded_without_subscribers():
    hub = EventHub()
    sid = hub.register("x")
    assert hub.horizon(sid) == UNBOUNDED
    hub.subscribe("x", [].append, unbounded)
    assert hub.horizon(sid) == UNBOUNDED


def test_horizon_is_least_over_subscribers():
    hub = EventHub()
    sid = hub.register("x")
    near, far = [5], [9]
    hub.subscribe("x", [].append, lambda: far[0])
    hub.subscribe("x", [].append, lambda: near[0])
    assert hub.horizon(sid) == 5
    near[0] = 12                  # asked afresh on every call
    assert hub.horizon(sid) == 9


def test_one_subscriber_without_horizon_disables_deferral():
    hub = EventHub()
    sid = hub.register("x")
    bounded, plain = [].append, [].append
    hub.subscribe("x", bounded, lambda: 7)
    hub.subscribe("x", plain)
    assert hub.horizon(sid) == 0
    hub.unsubscribe("x", plain)
    assert hub.horizon(sid) == 7
    hub.unsubscribe("x", bounded)
    assert hub.horizon(sid) == UNBOUNDED
