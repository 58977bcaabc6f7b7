"""LiveKernel semantics: the simulator, paced by the wall clock.

All tests run with a tiny ``time_scale`` so wall-clock waits stay in the
milliseconds; assertions are on *ordering* and *values*, with generous
bounds on elapsed time (CI machines stall).
"""

import asyncio
import time

import pytest

from repro.live.clock import LiveKernel
from repro.live.transport import LiveTransport
from repro.network.topology import UniformTopology
from repro.sim.engine import Simulator
from repro.sim.errors import Interrupt, SimulationError


def run_async(coroutine):
    return asyncio.run(coroutine)


def test_live_kernel_is_a_simulator():
    assert isinstance(LiveKernel(), Simulator)


def test_rejects_nonpositive_time_scale():
    with pytest.raises(ValueError):
        LiveKernel(time_scale=0.0)


def test_timeout_orders_and_values():
    kernel = LiveKernel(time_scale=0.001)
    seen = []

    def process():
        value = yield kernel.timeout(2.0, value="first")
        seen.append((value, kernel.now))
        value = yield kernel.timeout(3.0, value="second")
        seen.append((value, kernel.now))
        return "done"

    result = run_async(kernel.run(until=kernel.spawn(process())))
    assert result == "done"
    assert [v for v, _ in seen] == ["first", "second"]
    t_first, t_second = (t for _, t in seen)
    assert t_first >= 2.0
    assert t_second >= t_first + 3.0


def test_now_tracks_wall_clock():
    kernel = LiveKernel(time_scale=0.001)  # 1 unit = 1ms

    def process():
        yield kernel.timeout(20.0)

    start = time.monotonic()
    run_async(kernel.run(until=kernel.spawn(process())))
    elapsed = time.monotonic() - start
    assert elapsed >= 0.018  # 20 units at 1ms each, minus clock granularity
    assert kernel.now >= 20.0


def test_succeed_after_behaves_as_under_the_simulator():
    # Event.succeed_after rides the kernel's _schedule hook, so the live
    # kernel gets it from the shared Event class: fires once, no earlier
    # than now + delay, and outlives an interrupted waiter.
    kernel = LiveKernel(time_scale=0.0005)
    event = kernel.event()
    abandoned = kernel.event()
    seen = []

    def waiter():
        value = yield event
        seen.append((kernel.now, value))

    def quitter():
        try:
            yield abandoned
        except Interrupt as interrupt:
            seen.append(("interrupted", interrupt.cause))

    kernel.spawn(waiter())
    leaver = kernel.spawn(quitter())
    armed_at = []

    def arm():
        armed_at.append(kernel.now)
        event.succeed_after(4.0, "data")
        abandoned.succeed_after(2.0, "nobody home")
        with pytest.raises(SimulationError):
            event.succeed("again")

    both, fired = kernel.event(), []

    def on_fired(child):
        fired.append(child)
        if len(fired) == 2:
            both.succeed()

    event.add_callback(on_fired)
    abandoned.add_callback(on_fired)
    kernel.call_later(1.0, arm)
    kernel.call_later(2.0, leaver.interrupt, "crash")
    # (not a fixed horizon: a stalled host arms late and fires late)
    run_async(kernel.run(until=both))
    assert seen[0] == ("interrupted", "crash")
    (woke_at, value), = seen[1:]
    assert value == "data" and woke_at >= armed_at[0] + 4.0
    assert abandoned.processed and abandoned.value == "nobody home"


def test_fifo_at_equal_timestamps():
    kernel = LiveKernel(time_scale=0.0005)
    order = []
    for tag in range(5):
        kernel.call_later(1.0, order.append, tag)
    stopper = kernel.event()
    kernel.call_later(1.0, stopper.succeed)
    run_async(kernel.run(until=stopper))
    assert order == [0, 1, 2, 3, 4]


def test_cancellable_timer_is_skipped():
    kernel = LiveKernel(time_scale=0.0005)
    fired = []
    token = kernel.call_later_cancellable(1.0, fired.append, "timer")
    token[0] = True
    stopper = kernel.event()
    kernel.call_later(2.0, stopper.succeed)
    run_async(kernel.run(until=stopper))
    assert fired == []
    assert kernel.cancelled_events == 1


def test_event_injection_from_reader_task():
    """inject() must wake a kernel sleeping on a far-off timer."""
    kernel = LiveKernel(time_scale=0.001)
    got = kernel.event()

    def process():
        value = yield got
        return value

    async def scenario():
        proc = kernel.spawn(process())
        # park a far-future timer so the kernel sleeps deeply
        kernel.call_later(10_000.0, lambda: None)

        async def external():
            await asyncio.sleep(0.02)
            kernel.inject(got.succeed, "stimulus")

        task = asyncio.ensure_future(external())
        result = await kernel.run(until=proc)
        await task
        return result

    start = time.monotonic()
    assert run_async(scenario()) == "stimulus"
    assert time.monotonic() - start < 5.0  # did not wait out the timer


def test_pushes_from_callbacks_need_no_wake():
    """Only inject() and stop() wake the loop: an entry a callback pushes
    lands before the loop re-reads the heap top to sleep, so it is not
    missed behind a far-off timer."""
    kernel = LiveKernel(time_scale=0.001)
    done = kernel.event()
    kernel.call_later(10_000.0, lambda: None)  # 10 wall seconds out
    kernel.call_later(1.0, kernel.call_later, 1.0, done.succeed, "woke")
    start = time.monotonic()
    assert run_async(kernel.run(until=done)) == "woke"
    assert time.monotonic() - start < 5.0


def test_process_exception_propagates():
    kernel = LiveKernel(time_scale=0.0005)

    def process():
        yield kernel.timeout(1.0)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        run_async(kernel.run(until=kernel.spawn(process())))


def test_process_must_yield_events():
    kernel = LiveKernel(time_scale=0.0005)

    def process():
        yield 42

    with pytest.raises(SimulationError):
        run_async(kernel.run(until=kernel.spawn(process())))


def test_horizon_run_advances_clock():
    kernel = LiveKernel(time_scale=0.001)
    fired = []
    kernel.call_later(5.0, fired.append, "in")
    kernel.call_later(50.0, fired.append, "out")
    run_async(kernel.run(until=10.0))
    assert fired == ["in"]
    assert kernel.now >= 10.0


def test_stop_interrupts_run():
    kernel = LiveKernel(time_scale=0.001)

    async def scenario():
        async def stopper():
            await asyncio.sleep(0.02)
            kernel.stop()

        task = asyncio.ensure_future(stopper())
        await kernel.run()  # no work, no horizon: only stop() can end it
        await task

    run_async(asyncio.wait_for(scenario(), timeout=5.0))


def test_two_kernels_interleave_in_one_loop():
    """Two endpoints' kernels are just coroutines; they must co-run."""
    a, b = LiveKernel(time_scale=0.001), LiveKernel(time_scale=0.001)
    log = []
    a.call_later(2.0, log.append, "a2")
    b.call_later(1.0, log.append, "b1")
    b.call_later(3.0, log.append, "b3")

    async def scenario():
        await asyncio.gather(a.run(until=4.0), b.run(until=4.0))

    run_async(scenario())
    assert log == ["b1", "a2", "b3"]


def test_protocol_code_runs_unmodified_under_live_kernel():
    """The s-2PL client/server generators — written for the simulator —
    must execute a full transaction in-process under a LiveKernel with a
    LiveTransport delivering locally (both sites in this process)."""
    from repro.core.config import SimulationConfig
    from repro.protocols.registry import make_protocol
    from repro.protocols.transaction import Transaction
    from repro.storage.store import VersionedStore
    from repro.validate.history import HistoryRecorder
    from repro.workload.spec import Operation, TransactionSpec
    from repro.locking.modes import LockMode

    kernel = LiveKernel(time_scale=0.0005)
    config = SimulationConfig(
        protocol="s2pl", n_clients=1, n_items=3, network_latency=2.0,
        total_transactions=1, warmup_transactions=0)
    history = HistoryRecorder()
    store = VersionedStore(range(3))
    transport = LiveTransport(kernel, UniformTopology(2.0), site_id=0,
                              port_map={0: 0})
    server, clients = make_protocol("s2pl", kernel, config, store, history,
                                    [1])
    transport.add_site(server)
    transport.add_site(clients[1])

    spec = TransactionSpec(operations=(
        Operation(item_id=0, mode=LockMode.WRITE, think_time=1.0),
        Operation(item_id=2, mode=LockMode.READ, think_time=1.0),
    ))
    txn = Transaction(1, 1, spec)
    outcome = run_async(
        kernel.run(until=kernel.spawn(clients[1].execute(txn))))
    assert outcome.committed
    assert 1 in history.committed
    assert len(history.accesses) == 2
    # response spans 2 round trips of latency 2.0 plus 2 think units
    assert outcome.response_time >= 2 * (2 * 2.0) + 2 * 1.0
