"""The simulator: clock, event heap, and run loop.

The run loop is the hottest code in the repository — every message
delivery, timeout, and process resumption passes through it — so it
binds the heap and counters to locals for the duration of a run (written
back on exit, including on error), resolves the tracer hook once per run
instead of per dispatch, and dispatches heap entries straight from the
popped tuple without re-packing.  Every ``run`` flavour shares that one
loop (:meth:`Simulator._drain`); :meth:`Simulator.step` is the only
other place an entry is popped.

Heap entries are ``(when, seq, callback, args)`` tuples; cancellable
entries (armed by :meth:`Simulator.call_later_cancellable`, used by
retransmissions and chain watchdogs) carry a fifth element, a one-slot
mutable token.  Cancelling flips the token and the pop loop *skips* the
entry instead of invoking a dead callback — lazy deletion, since removing
from the middle of a heap is O(n).  Skipped entries still advance the
clock, the processed-events counter, and the engine trace hook exactly as
the live no-op call used to, so diagnostics and traces stay bit-identical
with pre-fast-path kernels; they are additionally counted in
:attr:`Simulator.cancelled_events`.
"""

import gc
import heapq
from contextlib import contextmanager
from itertools import count

from repro.sim.errors import SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Timeout


@contextmanager
def relaxed_gc(threshold=(500_000, 1_000, 1_000)):
    """Raise the cyclic-GC thresholds for the duration of a run.

    The kernel churns through short-lived container objects (heap entries,
    envelopes, events) fast enough that CPython's default generation-0
    trigger (700 net allocations) fires thousands of times per run, and
    every full collection rescans the long-lived simulation graph.  The
    garbage is overwhelmingly acyclic and dies to refcounting anyway, so
    the genuine Event/Process cycles are collected a few times per run
    instead of thousands.

    What that is worth, measured (EXPERIMENTS.md appendix J; run time
    with the default thresholds over run time with these): nothing on
    the untraced protocol cells — ``closed_s2pl`` 0.996, ``closed_g2pl``
    0.994, ``sharded_2pc`` 0.999, ``open_population`` 1.016 — and 4-13%
    on ``traced_g2pl`` (1.037 with the JSONL export inside the timed
    region, 1.07 and 1.13 in two CPU-time A/Bs without it).  It was kept
    for the traced run: a tracer kept a tuple per event resident, and
    that list was what the default collector kept rescanning.  Since the
    trace keeps its values in typed columns, re-measured on
    ``traced_g2pl`` with its export (CPU seconds with the default
    thresholds over these, median of 7-9 alternating runs in one process,
    seed 229): 0.97, 1.02, 1.02, 0.97 and 1.09 in five rounds, against
    1.04, 1.02, 1.02 and 1.00 on the row-per-tuple trace — inside the
    run-to-run spread of a shared 2-vCPU host either way; a finished
    traced run leaves 8,308 tracked objects where it left 16,103.
    Thresholds are restored on exit; trajectories are unaffected (the
    simulator is deterministic regardless of collector timing).
    """
    saved = gc.get_threshold()
    gc.set_threshold(*threshold)
    try:
        yield
    finally:
        gc.set_threshold(*saved)


class Simulator:
    """Owns the simulation clock and executes events in timestamp order.

    Determinism: entries at equal timestamps are processed in the order they
    were scheduled (a monotonically increasing sequence number breaks ties),
    so a given seed always replays the same trajectory.
    """

    def __init__(self):
        self._now = 0.0
        self._heap = []
        self._seq = count()
        self._event_count = 0
        self._peak_heap = 0
        self._cancelled_count = 0
        #: optional :class:`~repro.obs.tracer.Tracer`; every instrumented
        #: component reads it through its ``sim`` reference, so attaching
        #: one here turns tracing on for the whole stack.
        self.tracer = None

    @property
    def now(self):
        """Current simulation time."""
        return self._now

    @property
    def processed_events(self):
        """Total number of heap entries processed so far (diagnostics).

        Includes cancelled-timer entries: they are popped and skipped, but
        they occupied the heap and the dispatch loop all the same (and were
        processed as no-op calls before lazy deletion existed, so the
        counter is comparable across kernel versions).
        """
        return self._event_count

    @property
    def peak_heap_depth(self):
        """Deepest the event heap has been while processing."""
        return self._peak_heap

    @property
    def cancelled_events(self):
        """Heap entries popped and skipped because their timer had been
        cancelled (lazy deletion; see :meth:`call_later_cancellable`)."""
        return self._cancelled_count

    def _engine_hook(self):
        """The per-dispatch tracer callback, or None (the common case)."""
        tracer = self.tracer
        if tracer is not None and tracer.engine_events:
            return tracer.engine_dispatch
        return None

    # -- event construction -------------------------------------------------

    def event(self):
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create a :class:`Timeout` that fires ``delay`` units from now."""
        return Timeout(self, delay, value)

    def all_of(self, events):
        """Create an :class:`AllOf` condition over ``events``."""
        return AllOf(self, events)

    def any_of(self, events):
        """Create an :class:`AnyOf` condition over ``events``."""
        return AnyOf(self, events)

    def spawn(self, generator):
        """Run ``generator`` as a simulation :class:`Process`."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling ---------------------------------------------------------

    def call_soon(self, callback, *args):
        """Run ``callback(*args)`` at the current time, after pending entries."""
        heapq.heappush(self._heap, (self._now, next(self._seq), callback, args))

    def call_later(self, delay, callback, *args):
        """Run ``callback(*args)`` ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        heapq.heappush(
            self._heap, (self._now + delay, next(self._seq), callback, args))

    def call_later_cancellable(self, delay, callback, *args):
        """Like :meth:`call_later`, but returns a cancel token.

        Setting ``token[0] = True`` disarms the entry: the run loop skips
        it at pop time (counted in :attr:`cancelled_events`) instead of
        invoking the callback.  The entry itself stays on the heap until
        its fire time — lazy deletion.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        token = [False]
        heapq.heappush(
            self._heap,
            (self._now + delay, next(self._seq), callback, args, token))
        return token

    def schedule_at(self, when, callback, *args):
        """Run ``callback(*args)`` at absolute time ``when`` (>= now).

        Fast-path variant of :meth:`call_later` for callers that already
        computed an absolute timestamp (the transport's delivery times).
        """
        if when < self._now:
            raise ValueError(
                f"cannot schedule at {when!r} before now={self._now!r}")
        heapq.heappush(self._heap, (when, next(self._seq), callback, args))

    def _schedule(self, event, delay):
        heapq.heappush(
            self._heap, (self._now + delay, next(self._seq), event._process, ()))

    def _enqueue_triggered(self, event):
        heapq.heappush(self._heap, (self._now, next(self._seq), event._process, ()))

    # -- run loop -----------------------------------------------------------

    def _drain(self, horizon, done=()):
        """The pop-dispatch loop behind :meth:`run`.

        Processes entries in heap order until the heap drains, ``done``
        turns truthy, or the next entry lies beyond ``horizon`` (entries
        *at* the horizon are processed).  The clock is left at the last
        processed entry's timestamp.
        """
        heap = self._heap
        hook = self._engine_hook()
        heappop = heapq.heappop
        events = self._event_count
        peak = self._peak_heap
        cancelled = self._cancelled_count
        try:
            while heap and not done:
                when = heap[0][0]
                if when > horizon:
                    break
                depth = len(heap)
                if depth > peak:
                    peak = depth
                entry = heappop(heap)
                self._now = when
                events += 1
                if hook is not None:
                    hook(when, depth)
                if len(entry) == 5 and entry[4][0]:
                    cancelled += 1
                    continue
                entry[2](*entry[3])
        finally:
            self._event_count = events
            self._peak_heap = peak
            self._cancelled_count = cancelled

    def run(self, until=None):
        """Process events until the heap drains or the clock passes ``until``.

        ``until`` may be a time (the clock is advanced to exactly ``until``
        if the simulation outlives it) or an :class:`Event` (run until that
        event is processed; its value is returned).

        With a time horizon the clock lands on exactly ``until`` even when
        the heap drained *earlier* — intentional, and the SimPy convention:
        ``run(until=t)`` means "advance the simulated world to time t", and
        an idle tail is simulated time that passed with nothing happening.
        Rates computed as events / ``now`` therefore use the requested
        duration, comparable across runs, rather than the accident of the
        last event's timestamp. (Event-horizon runs stop at the event's own
        timestamp instead.)
        """
        if isinstance(until, Event):
            return self._run_until_event(until)
        horizon = float("inf") if until is None else float(until)
        if horizon < self._now:
            raise SimulationError(
                f"cannot run until {horizon} which is before now={self._now}")
        self._drain(horizon)
        if horizon != float("inf"):
            self._now = horizon
        return None

    def _run_until_event(self, event):
        done = []
        event.add_callback(done.append)
        self._drain(float("inf"), done=done)
        if not done:
            raise SimulationError(
                "simulation ran out of events before the awaited event fired")
        if not event.ok:
            event.defused = True
            raise event._exception
        return event._value

    def step(self):
        """Process a single heap entry; returns False if the heap is empty."""
        if not self._heap:
            return False
        depth = len(self._heap)
        if depth > self._peak_heap:
            self._peak_heap = depth
        entry = heapq.heappop(self._heap)
        self._now = entry[0]
        self._event_count += 1
        hook = self._engine_hook()
        if hook is not None:
            hook(entry[0], depth)
        if len(entry) == 5 and entry[4][0]:
            self._cancelled_count += 1
            return True
        entry[2](*entry[3])
        return True

    @property
    def pending(self):
        """Number of heap entries currently pending."""
        return len(self._heap)

    def peek(self):
        """Timestamp of the next heap entry, or ``inf`` when drained."""
        return self._heap[0][0] if self._heap else float("inf")
