"""Unit tests for the simulation engine (clock, heap, run loop)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator, SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_later_advances_clock():
    sim = Simulator()
    seen = []
    sim.call_later(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    seen = []
    sim.call_soon(seen.append, "a")
    sim.call_soon(seen.append, "b")
    sim.run()
    assert seen == ["a", "b"]
    assert sim.now == 0.0


def test_entries_process_in_timestamp_order():
    sim = Simulator()
    seen = []
    sim.call_later(3.0, seen.append, 3)
    sim.call_later(1.0, seen.append, 1)
    sim.call_later(2.0, seen.append, 2)
    sim.run()
    assert seen == [1, 2, 3]


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    seen = []
    for tag in ("first", "second", "third"):
        sim.call_later(7.0, seen.append, tag)
    sim.run()
    assert seen == ["first", "second", "third"]


def test_run_until_time_stops_and_sets_clock():
    sim = Simulator()
    seen = []
    sim.call_later(1.0, seen.append, 1)
    sim.call_later(10.0, seen.append, 10)
    sim.run(until=5.0)
    assert seen == [1]
    assert sim.now == 5.0
    sim.run()
    assert seen == [1, 10]


def test_run_until_time_advances_clock_past_drained_heap():
    # Pins the documented (SimPy-convention) semantics: run(until=t) means
    # "advance the simulated world to t", so the clock lands on exactly t
    # even when the last event fired earlier — the idle tail is simulated
    # time in which nothing happened, and rates computed as events / now
    # use the requested duration rather than the last event's timestamp.
    sim = Simulator()
    seen = []
    sim.call_later(1.0, seen.append, 1)
    sim.run(until=50.0)
    assert seen == [1]
    assert sim.now == 50.0
    # Scheduling keeps working relative to the advanced clock.
    sim.call_later(2.0, seen.append, 2)
    sim.run()
    assert seen == [1, 2]
    assert sim.now == 52.0


def test_run_until_time_on_empty_heap_advances_clock():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_event_returns_value():
    sim = Simulator()
    event = sim.event()
    sim.call_later(4.0, event.succeed, "done")
    assert sim.run(until=event) == "done"
    assert sim.now == 4.0


def test_run_until_event_raises_on_failure():
    sim = Simulator()
    event = sim.event()
    sim.call_later(1.0, event.fail, RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=event)


def test_run_until_event_never_fired_is_an_error():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError, match="ran out of events"):
        sim.run(until=event)


def test_run_until_past_time_is_an_error():
    sim = Simulator()
    sim.call_later(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=2.0)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_later(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.timeout(-0.5)


def test_step_processes_one_entry():
    sim = Simulator()
    seen = []
    sim.call_later(1.0, seen.append, "a")
    sim.call_later(2.0, seen.append, "b")
    assert sim.step() is True
    assert seen == ["a"]
    assert sim.step() is True
    assert sim.step() is False


def test_pending():
    sim = Simulator()
    assert sim.pending == 0
    sim.call_later(3.5, lambda: None)
    assert sim.pending == 1


def test_processed_events_counter():
    sim = Simulator()
    for _ in range(5):
        sim.call_soon(lambda: None)
    sim.run()
    assert sim.processed_events == 5


def test_nested_scheduling_during_run():
    sim = Simulator()
    seen = []

    def chain(depth):
        seen.append((sim.now, depth))
        if depth < 3:
            sim.call_later(1.0, chain, depth + 1)

    sim.call_soon(chain, 0)
    sim.run()
    assert seen == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]


# -- one loop, four drivers ---------------------------------------------------
#
# run(), run(until=t), run(until=event) and step() share one
# pop-dispatch body; whichever way a schedule is driven it must replay
# the same callbacks and counters.

_END = 50.0  # sentinel timeout, later than any generated entry (<= 4 + 3)

ENTRIES = st.tuples(
    st.integers(0, 4),                          # delay; small ints make ties
    st.sampled_from(["plain", "timer", "cancelled"]),
    st.lists(st.integers(0, 3), max_size=2),    # delays it schedules on firing
    st.one_of(st.none(), st.integers(0, 7)))    # timer it cancels on firing
SCHEDULES = st.lists(ENTRIES, min_size=1, max_size=8)
CUTS = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0]),
                max_size=4)


def _build(schedule):
    sim = Simulator()
    order = []
    tokens = []

    def fire(label, children, cancels):
        order.append((sim.now, label, sim.pending))
        for n, delay in enumerate(children):
            sim.call_later(float(delay), fire, f"{label}.{n}", (), None)
        if cancels is not None and tokens:
            tokens[cancels % len(tokens)][0] = True

    for index, (delay, kind, children, cancels) in enumerate(schedule):
        if kind == "plain":
            sim.call_later(float(delay), fire, index, children, cancels)
        else:
            token = sim.call_later_cancellable(
                float(delay), fire, index, children, cancels)
            token[0] = kind == "cancelled"
            tokens.append(token)
    return sim, order, sim.timeout(_END)


def _observed(sim, order):
    assert sim.pending == 0
    return (order, sim.processed_events, sim.peak_heap_depth,
            sim.cancelled_events)


@given(SCHEDULES, CUTS)
@settings(max_examples=150, deadline=None)
def test_every_driver_replays_the_same_trajectory(schedule, cuts):
    # always cut at one entry's own timestamp: the boundary case
    boundary = float(schedule[0][0])
    cuts = sorted(set(cuts) | {boundary})

    sim, order, _ = _build(schedule)
    sim.run()
    reference = _observed(sim, order)

    # run(until=t) processes entries *at* t and lands the clock on t
    sim, order, _ = _build(schedule)
    for t in cuts:
        assert sim.run(until=t) is None
        assert sim.now == t
        assert all(entry[0] > t for entry in sim._heap)
    sim.run()
    assert _observed(sim, order) == reference

    sim, order, end = _build(schedule)
    assert sim.run(until=end) is None
    assert sim.now == _END
    assert _observed(sim, order) == reference

    sim, order, _ = _build(schedule)
    while sim.step():
        pass
    assert _observed(sim, order) == reference
