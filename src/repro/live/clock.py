"""The live kernel: the simulator, paced by the wall clock.

:class:`LiveKernel` *is* a :class:`~repro.sim.engine.Simulator`: the same
heap of ``(when, seq, callback, args)`` entries, the same scheduling
methods, the same :class:`~repro.sim.events.Event` and
:class:`~repro.sim.process.Process` hooks, inherited rather than copied.
A protocol client or server cannot tell which kernel is underneath —
which is the whole point: the exact code the simulator validated is what
talks TCP. What is live is only the run loop: it *waits for wall time to
catch up* with each entry's timestamp instead of warping the clock
forward, and external stimuli (decoded network frames) can be injected
between entries.

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

from repro.sim.engine import Simulator
from repro.sim.events import Event


class LiveKernel(Simulator):
    """Wall-clock execution of simulator events and processes.

    Ordering semantics — FIFO at equal timestamps, lazy deletion of
    cancelled timers — are the simulator's own. The only difference is
    *when* an entry runs: at its timestamp's wall-clock moment, not
    immediately.
    """

    def __init__(self, time_scale=0.01, origin=None):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale!r}")
        super().__init__()
        #: wall seconds per simulation time unit
        self.time_scale = time_scale
        self._origin = origin
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

    def wall_now(self):
        """Elapsed wall time since the origin, in simulation units."""
        return (time.monotonic() - self.origin) / self.time_scale

    # -- external stimuli -----------------------------------------------------

    def inject(self, callback, *args):
        """Schedule ``callback(*args)`` from *outside* the run loop (an
        asyncio reader task) and wake the loop. The entry is stamped with
        the current wall time, not ``now``: the stimulus happened when it
        happened, even if the loop was asleep waiting on a far-off timer.

        This and :meth:`stop` are the only pushes made from outside the
        loop, so they are the only ones that wake it: an entry pushed by a
        callback lands before the loop re-reads the heap top to sleep.
        """
        self.schedule_at(max(self.wall_now(), self.now), callback, *args)
        if self._wake is not None:
            self._wake.set()

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
                    self.now = wall if wall > when else when
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
            if self.now < horizon:
                self.now = horizon
        if isinstance(until, Event):
            if not done:
                return None  # stopped before the event fired
            if not until.ok:
                until.defused = True
                raise until._exception
            return until._value
        return None
