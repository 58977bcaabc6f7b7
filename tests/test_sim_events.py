"""Unit tests for events, timeouts and conditions."""

import pytest

from repro.sim import Simulator, SimulationError


@pytest.fixture
def sim():
    return Simulator()


def test_event_lifecycle(sim):
    event = sim.event()
    assert not event.triggered
    assert not event.processed
    event.succeed(42)
    assert event.triggered
    assert not event.processed
    sim.run()
    assert event.processed
    assert event.ok
    assert event.value == 42


def test_event_value_before_trigger_is_error(sim):
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value
    with pytest.raises(SimulationError):
        _ = event.ok


def test_double_trigger_rejected(sim):
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(RuntimeError())


def test_fail_requires_exception(sim):
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_failed_event_value_raises(sim):
    event = sim.event()
    event.fail(ValueError("nope"))
    event.defused = True
    sim.run()
    assert not event.ok
    with pytest.raises(ValueError, match="nope"):
        _ = event.value


def test_unhandled_failure_surfaces_at_processing(sim):
    event = sim.event()
    event.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_callbacks_run_in_registration_order(sim):
    event = sim.event()
    seen = []
    event.add_callback(lambda e: seen.append("one"))
    event.add_callback(lambda e: seen.append("two"))
    event.succeed()
    sim.run()
    assert seen == ["one", "two"]


def test_callback_added_after_processing_still_runs(sim):
    event = sim.event()
    event.succeed("late")
    sim.run()
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == ["late"]


def test_remove_callback(sim):
    event = sim.event()
    seen = []
    callback = seen.append
    event.add_callback(callback)
    event.remove_callback(callback)
    event.succeed()
    sim.run()
    assert seen == []


def test_timeout_fires_at_delay(sim):
    times = []
    timeout = sim.timeout(2.5, value="tick")
    timeout.add_callback(lambda e: times.append((sim.now, e.value)))
    sim.run()
    assert times == [(2.5, "tick")]


def test_timeout_cannot_be_succeeded_manually(sim):
    timeout = sim.timeout(1.0)
    with pytest.raises(SimulationError):
        timeout.succeed()
    sim.run()


# -- succeed_after: trigger now, process later -------------------------------


def test_succeed_after_fires_once_at_now_plus_delay(sim):
    sim.run(until=5.0)
    event = sim.event()
    seen = []
    event.add_callback(lambda ev: seen.append((sim.now, ev.value)))
    before = sim.pending
    assert event.succeed_after(3.0, "granted") is event
    assert sim.pending == before + 1  # one heap entry, not two
    assert event.triggered and not event.processed
    with pytest.raises(SimulationError):
        event.succeed("again")
    with pytest.raises(SimulationError):
        event.succeed_after(1.0)
    sim.run()
    assert seen == [(8.0, "granted")]
    assert event.processed


def test_succeed_after_rejects_negative_delay(sim):
    event = sim.event()
    with pytest.raises(ValueError):
        event.succeed_after(-1.0)
    assert not event.triggered  # still usable
    event.succeed_after(0.0, "ok")
    sim.run()
    assert event.value == "ok"


def test_succeed_after_wakes_a_waiting_process_once(sim):
    event = sim.event()
    woken = []

    def waiter():
        value = yield event
        woken.append((sim.now, value))

    sim.spawn(waiter())
    sim.call_later(2.0, event.succeed_after, 4.0, "data")
    sim.run()
    assert woken == [(6.0, "data")]


def test_succeed_after_survives_an_interrupted_waiter(sim):
    # The armed entry outlives its waiter as an ordinary counted heap
    # entry, like the abandoned Timeout of an interrupted think.
    from repro.sim.errors import Interrupt

    event = sim.event()
    log = []

    def waiter():
        try:
            yield event
        except Interrupt as interrupt:
            log.append(("interrupted", sim.now, interrupt.cause))

    process = sim.spawn(waiter())
    sim.call_later(1.0, event.succeed_after, 5.0, "late")
    sim.call_later(2.0, process.interrupt, "crash")
    sim.run(until=3.0)
    assert log == [("interrupted", 2.0, "crash")]
    assert not event.processed
    processed = sim.processed_events
    sim.run()
    assert event.processed and event.value == "late"
    assert sim.processed_events == processed + 1
    assert sim.now == 6.0

