"""Bounded-memory streaming statistics for large-population runs.

The exact metrics pipeline keeps every committed response time in a
Python list — perfect for the paper's 1,500-transaction runs and for the
byte-identical golden fingerprints, hopeless for 10⁵–10⁶-transaction
population runs. This module provides the streaming counterparts:

* :class:`Welford` — running mean/variance in O(1) memory (Welford's
  online algorithm; numerically stable where a naive sum-of-squares is
  not).
* :class:`ReservoirSampler` — Vitter's Algorithm R: a uniform sample of
  a stream of unknown length in O(capacity) memory, from which any
  percentile is estimated with the same linear interpolation the exact
  path uses. The sampler draws from its *own* seeded RNG stream, so
  attaching it never perturbs the simulation trajectory (the same
  discipline the tracer follows).
* :class:`WindowedThroughput` — fixed-width tumbling-window commit
  counters with a bounded ring of recent windows plus running total and
  peak, for time-resolved throughput without a per-event log.
* :class:`RunningStat` — drop-in ``list.append`` replacement keeping
  only count/sum/min/max, used to bound the per-client ``op_waits``
  diagnostic on the streaming path.

Everything here is deterministic given the seed and the input order, so
streaming runs fingerprint and replay bit-identically at ``jobs=1`` and
``jobs=N`` exactly like exact-path runs.
"""

import math
from collections import deque

from repro.stats import RESERVOIR_CAPACITY, THROUGHPUT_WINDOW


def linear_percentile(values, p):
    """Linearly-interpolated ``p``-th percentile (0-100) of ``values``;
    NaN when there are none. Every percentile in the package is this
    one interpolation, over an exact list or a reservoir sample."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p!r}")
    data = sorted(values)
    if not data:
        return float("nan")
    if len(data) == 1:
        return data[0]
    rank = (p / 100.0) * (len(data) - 1)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    fraction = rank - low
    return data[low] + (data[high] - data[low]) * fraction


class Welford:
    """Running count, mean and sum of squared deviations ``m2`` (Welford's
    online moments; the run fingerprint reads ``m2``)."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value):
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)


class ReservoirSampler:
    """Uniform fixed-capacity sample of an unbounded stream (Algorithm R).

    ``rng`` must expose ``random()``; it should be a dedicated stream so
    consuming it cannot perturb any other draw sequence in the run.
    """

    __slots__ = ("capacity", "seen", "values", "_random")

    def __init__(self, rng, capacity=RESERVOIR_CAPACITY):
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity!r}")
        self.capacity = capacity
        self.seen = 0
        self.values = []
        self._random = rng.random

    def add(self, value):
        self.seen += 1
        values = self.values
        if len(values) < self.capacity:
            values.append(value)
            return
        # Replace a random slot with probability capacity/seen: draw a
        # uniform index in [0, seen) and keep only hits below capacity.
        slot = int(self._random() * self.seen)
        if slot < self.capacity:
            values[slot] = value

    def percentile(self, p):
        """Linearly-interpolated percentile of the sample (NaN if empty).

        Matches :meth:`repro.stats.collector.RunMetrics.percentile` exactly
        when the reservoir holds the whole stream (seen <= capacity).
        """
        return linear_percentile(self.values, p)


class WindowedThroughput:
    """Tumbling-window commit counters in bounded memory.

    Counts events into fixed-width windows of simulation time; the most
    recent ``max_windows`` (index, count) pairs are retained in a ring,
    older windows fold into the running total/peak only.
    """

    __slots__ = ("window", "recent", "total", "peak_count", "_index",
                 "_count")

    def __init__(self, window=THROUGHPUT_WINDOW, max_windows=256):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        self.window = window
        self.recent = deque(maxlen=max_windows)
        self.total = 0
        self.peak_count = 0
        self._index = None
        self._count = 0

    def record(self, when):
        index = int(when / self.window)
        if index != self._index:
            self._roll()
            self._index = index
        self._count += 1
        self.total += 1
        if self._count > self.peak_count:
            self.peak_count = self._count

    def _roll(self):
        if self._index is not None:
            self.recent.append((self._index, self._count))
        self._count = 0


class RunningStat:
    """Count/sum/min/max accumulator with a ``list``-like ``append``.

    Swapped in for unbounded diagnostic lists (``ProtocolClient.op_waits``)
    on the streaming path; exposes enough for the mean the runner reports.
    """

    __slots__ = ("count", "sum", "min", "max")

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def append(self, value):
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
