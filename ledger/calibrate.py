"""Host-speed calibration: seconds on this host -> reference-host seconds.

The container this benchmark was sized on changes speed by up to 2x on a
one-second timescale and at times loses 5-30% of its wall clock to the
hypervisor (NOISE.md), so a raw wall-clock time says more about the
minute it was taken in than about the code.  Every timed region is
therefore converted to *reference-host seconds*:

    ref_s = (cpu_s - sampling_s) * mean(ops_per_s samples) / REF_OPS_PER_S

``cpu_s`` is the process's CPU time over the region (user + system: the
programs measured are single-threaded and compute-bound, so on a quiet
host it equals the wall time; stolen and descheduled time is not in it).
The samples say how fast the host ran *while* it ran the process: a
fixed burst of stdlib-only operations (heapq push/pop of tuples, dict
get/set, Python-level calls, small allocations — the simulator's own
diet, on a cache-resident working set: NOISE.md shows that larger
footprints track the workloads worse, not better) that an interval timer
runs *inside* the measured process every ``INTERVAL_S`` seconds, so host
speed is read throughout the region and not only at its edges; the CPU
time the bursts take is subtracted.  Speed samples are uniform in time,
hence the arithmetic mean.

This module must not import ``repro``: the yardstick cannot depend on the
thing it measures.
"""

import heapq
import signal
import statistics
import time
from contextlib import contextmanager

#: Burst operations per second on the defining host (median of the
#: ``host.calib_ops_per_s`` values of the committed baseline runs), so
#: that ``ref_s ~= wall_s`` there.  A constant, like the burst's size and
#: period below: changing any of them rescales every time metric and
#: invalidates comparisons with earlier results, so none is an argument.
REF_OPS_PER_S = 1_650_000.0

BURST_OPS = 1500
INTERVAL_S = 0.02
_HEAP_DEPTH = 48
_TABLE_KEYS = 512


def _touch(table, key):
    value = table.get(key)
    table[key] = (key, value) if value is None else None
    return value


class Reading:
    """One timed region: filled in when the ``with`` block exits."""

    __slots__ = ("start", "end", "sampling_s", "wall_s", "cpu_s", "ref_s",
                 "ops_per_s", "samples")

    def __init__(self):
        self.start = self.end = None       # time.perf_counter() readings
        self.sampling_s = None             # CPU spent in bursts, not the work
        self.wall_s = self.cpu_s = None    # both net of sampling_s
        self.ref_s = None                  # cpu_s at the reference speed
        self.ops_per_s = None              # mean burst rate over the region
        self.samples = 0

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class Sampler:
    """Runs the calibration burst on ``SIGALRM`` while armed.

    One per process, main thread only (Python delivers signals there).
    Regions do not nest; a region too short to catch a tick takes one
    burst after it closes.
    """

    def __init__(self):
        self._heap = []
        self._table = {}
        self._seq = 0
        self._rates = []
        self._spent = 0.0
        self._armed = False

    def _burst(self, *_signal_args):
        clock = time.process_time
        heap, table = self._heap, self._table
        push, pop = heapq.heappush, heapq.heappop
        seq = self._seq
        start = clock()
        for _ in range(BURST_OPS):
            seq += 1
            push(heap, (seq + (seq * 7919) % 64, seq, _touch, (seq,)))
            if len(heap) > _HEAP_DEPTH:
                entry = pop(heap)
                entry[2](table, entry[1] % _TABLE_KEYS)
        elapsed = clock() - start
        self._seq = seq
        self._rates.append(BURST_OPS / elapsed)
        self._spent += elapsed

    def start(self):
        if self._armed:
            return
        self._burst()  # fill the heap to its steady depth before it counts
        signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._armed = True

    def stop(self):
        if not self._armed:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._armed = False

    @contextmanager
    def timed(self):
        """Time the block; the yielded :class:`Reading` is final on exit."""
        if not self._armed:
            raise RuntimeError("Sampler.timed() needs start() first")
        reading = Reading()
        self._rates = []
        self._spent = 0.0
        reading.start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            yield reading
        finally:
            cpu_end = time.process_time()
            reading.end = time.perf_counter()
            rates, spent = self._rates, self._spent
            if not rates:
                self._burst()
                rates = self._rates
            reading.samples = len(rates)
            reading.ops_per_s = statistics.fmean(rates)
            reading.sampling_s = spent
            reading.wall_s = reading.end - reading.start - spent
            reading.cpu_s = cpu_end - cpu_start - spent
            reading.ref_s = to_ref_seconds(reading.cpu_s, reading.ops_per_s)


def to_ref_seconds(seconds, ops_per_s):
    return seconds * ops_per_s / REF_OPS_PER_S
