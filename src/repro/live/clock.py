"""The live kernel: wall-clock pacing behind the simulator's interface.

The protocol state machines in :mod:`repro.protocols` are written against
a small **kernel contract** — the subset of
:class:`~repro.sim.engine.Simulator` they actually touch:

* ``now`` — the current time, in *simulation time units*;
* ``event()`` / ``timeout(delay)`` / ``all_of`` / ``any_of`` — event
  construction (:mod:`repro.sim.events`); an event's ``succeed`` /
  ``succeed_after(delay, value)`` / ``fail`` reach the kernel through its
  ``_enqueue_triggered`` and ``_schedule`` hooks, which both kernels
  implement, so a grant armed to fire one think time later behaves the
  same here as under the simulator;
* ``spawn(generator)`` — run a generator as a process
  (:mod:`repro.sim.process`);
* ``call_soon`` / ``call_later`` / ``call_later_cancellable`` —
  callback scheduling (the latter arms the reliable channel's
  retransmissions and the g-2PL chain watchdog);
* ``tracer`` — the optional :class:`~repro.obs.tracer.Tracer`.

:class:`LiveKernel` implements that contract over asyncio: the same
event-heap machinery as the simulator, but the run loop *waits for wall
time to catch up* with each entry's timestamp instead of warping the
clock forward, and external stimuli (decoded network frames) can be
injected between entries. Because the kernel reuses the simulator's own
:class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`, and
:class:`~repro.sim.process.Process` classes, a protocol client or server
cannot tell which kernel is underneath — which is the whole point: the
exact code the simulator validated is what talks TCP.

Time units: one simulation time unit maps to ``time_scale`` wall-clock
seconds. ``now`` reports elapsed wall time divided by ``time_scale``, so
every measurement a live run records (response times, commit timestamps,
round accounting) is directly comparable with the simulator's numbers
for the same scenario.

The wall clock is :func:`time.monotonic`, which on Linux is
``CLOCK_MONOTONIC`` — a *machine-wide* clock, identical across
processes. The harness exploits that: it distributes one absolute
monotonic origin to every endpoint, so all kernels in a run agree on
``now`` to within scheduling noise.
"""

import asyncio
import heapq
import time
from itertools import count

from repro.sim.engine import Simulator
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process

#: The kernel methods/attributes protocol code may rely on — the contract
#: shared by Simulator and LiveKernel (checked by the kernel tests so the
#: two cannot drift apart silently).
KERNEL_CONTRACT = (
    "now", "tracer", "event", "timeout", "all_of", "any_of", "spawn",
    "call_soon", "call_later", "call_later_cancellable",
)


class LiveKernel:
    """Wall-clock execution of simulator events and processes.

    Entries are kept on the same ``(when, seq, callback, args)`` heap as
    the simulator (cancellable entries carry the simulator's fifth-slot
    token), so ordering semantics — FIFO at equal timestamps, lazy
    deletion of cancelled timers — are identical. The only difference is
    *when* an entry runs: at its timestamp's wall-clock moment, not
    immediately.
    """

    def __init__(self, time_scale=0.01, origin=None):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale!r}")
        #: wall seconds per simulation time unit
        self.time_scale = time_scale
        self._origin = origin
        self._heap = []
        self._seq = count()
        self._now = 0.0
        self._event_count = 0
        self._peak_heap = 0
        self._cancelled_count = 0
        self.tracer = None
        self._wake = None  # asyncio.Event, created inside the loop
        self._stopped = False

    # -- clock ---------------------------------------------------------------

    @property
    def origin(self):
        """Absolute ``time.monotonic`` instant of simulation time zero."""
        if self._origin is None:
            self._origin = time.monotonic()
        return self._origin

    def set_origin(self, origin):
        """Pin simulation time zero to an absolute ``time.monotonic``
        instant. The harness distributes one origin to every endpoint so
        all kernels in a run agree on ``now`` (CLOCK_MONOTONIC is
        machine-wide on Linux). Must happen before the first entry runs."""
        self._origin = origin

    @property
    def now(self):
        """Current time in simulation units (monotone; see run loop)."""
        return self._now

    def wall_now(self):
        """Elapsed wall time since the origin, in simulation units."""
        return (time.monotonic() - self.origin) / self.time_scale

    def to_wall_seconds(self, sim_duration):
        return sim_duration * self.time_scale

    # -- diagnostics (mirrors Simulator) -------------------------------------

    @property
    def processed_events(self):
        return self._event_count

    @property
    def peak_heap_depth(self):
        return self._peak_heap

    @property
    def cancelled_events(self):
        return self._cancelled_count

    @property
    def pending(self):
        return len(self._heap)

    # -- event construction (identical classes to the simulator) -------------

    def event(self):
        return Event(self)

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def all_of(self, events):
        return AllOf(self, events)

    def any_of(self, events):
        return AnyOf(self, events)

    def spawn(self, generator):
        return Process(self, generator)

    # -- scheduling -----------------------------------------------------------

    def _push(self, entry):
        heapq.heappush(self._heap, entry)
        if self._wake is not None:
            self._wake.set()

    def call_soon(self, callback, *args):
        self._push((self._now, next(self._seq), callback, args))

    def call_later(self, delay, callback, *args):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._push((self._now + delay, next(self._seq), callback, args))

    def call_later_cancellable(self, delay, callback, *args):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        token = [False]
        self._push((self._now + delay, next(self._seq), callback, args, token))
        return token

    def schedule_at(self, when, callback, *args):
        if when < self._now:
            raise ValueError(
                f"cannot schedule at {when!r} before now={self._now!r}")
        self._push((when, next(self._seq), callback, args))

    # hooks used by Event / Timeout internals
    def _schedule(self, event, delay):
        self._push((self._now + delay, next(self._seq), event._process, ()))

    def _enqueue_triggered(self, event):
        self._push((self._now, next(self._seq), event._process, ()))

    # -- external stimuli -----------------------------------------------------

    def inject(self, callback, *args):
        """Schedule ``callback(*args)`` from *outside* the run loop (an
        asyncio reader task) and wake the loop. The entry is stamped with
        the current wall time, not ``now``: the stimulus happened when it
        happened, even if the loop was asleep waiting on a far-off timer.
        """
        when = self.wall_now()
        if when < self._now:
            when = self._now
        self._push((when, next(self._seq), callback, args))

    def stop(self):
        """Make :meth:`run` return after the current entry."""
        self._stopped = True
        if self._wake is not None:
            self._wake.set()

    # -- run loop -------------------------------------------------------------

    async def run(self, until=None):
        """Process heap entries as wall time reaches them.

        ``until`` may be an :class:`Event` (return its value once it is
        processed), a time horizon in simulation units, or ``None`` (run
        until :meth:`stop`). Unlike the simulator, an empty heap is not an
        exit condition: a live endpoint with nothing scheduled is simply
        *idle*, waiting for the network to inject work.
        """
        if self._wake is None:
            self._wake = asyncio.Event()
        self.origin  # pin time zero before the first entry runs
        done = []
        horizon = None
        if isinstance(until, Event):
            until.add_callback(done.append)
        elif until is not None:
            horizon = float(until)
        heap = self._heap
        while not self._stopped and not done:
            executed = True
            while executed and heap and not done and not self._stopped:
                executed = False
                when = heap[0][0]
                if horizon is not None and when > horizon:
                    break
                wall = self.wall_now()
                if when <= wall:
                    depth = len(heap)
                    if depth > self._peak_heap:
                        self._peak_heap = depth
                    entry = heapq.heappop(heap)
                    # Late entries run at the *real* time they run: the
                    # clock never claims an earlier instant than the wall.
                    self._now = wall if wall > when else when
                    self._event_count += 1
                    if len(entry) == 5 and entry[4][0]:
                        self._cancelled_count += 1
                        executed = True
                        continue
                    entry[2](*entry[3])
                    executed = True
            if done or self._stopped:
                break
            if horizon is not None and self.wall_now() >= horizon \
                    and (not heap or heap[0][0] > horizon):
                break
            # Sleep until the next entry is due or something wakes us.
            if heap:
                next_when = heap[0][0]
                if horizon is not None and next_when > horizon:
                    next_when = horizon
                delay = (next_when - self.wall_now()) * self.time_scale
            elif horizon is not None:
                delay = (horizon - self.wall_now()) * self.time_scale
            else:
                delay = None
            if delay is not None and delay <= 0:
                continue
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=delay)
            except asyncio.TimeoutError:
                pass
        if horizon is not None and not done and not self._stopped:
            if self._now < horizon:
                self._now = horizon
        if isinstance(until, Event):
            if not done:
                return None  # stopped before the event fired
            if not until.ok:
                until.defused = True
                raise until._exception
            return until._value
        return None


def kernel_contract_holds(kernel):
    """True when ``kernel`` exposes every name protocol code relies on."""
    return all(hasattr(kernel, name) for name in KERNEL_CONTRACT)


# Both kernels must satisfy the contract; checked at import so a drift
# fails the first test that touches live mode, not a 3-process run.
assert kernel_contract_holds(Simulator()), "Simulator broke the contract"
assert kernel_contract_holds(LiveKernel()), "LiveKernel broke the contract"
