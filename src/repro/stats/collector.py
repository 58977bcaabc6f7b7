"""Per-run metrics collection with transient-phase elimination."""

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.stats import RESERVOIR_CAPACITY, THROUGHPUT_WINDOW
from repro.stats.streaming import (
    ReservoirSampler,
    Welford,
    WindowedThroughput,
    linear_percentile,
)


@dataclass
class RunMetrics:
    """Steady-state metrics of one simulation run."""

    committed: int = 0
    aborted: int = 0
    warmup_discarded: int = 0
    response_times: list = field(default_factory=list)
    abort_reasons: dict = field(default_factory=dict)
    first_measured_at: Optional[float] = None
    last_measured_at: Optional[float] = None

    #: exact path: every committed response time is retained
    streaming = False

    def observe_response(self, response_time, end_time):
        """Record one committed transaction's response time."""
        self.response_times.append(response_time)

    @property
    def finished(self):
        return self.committed + self.aborted

    @property
    def mean_response_time(self):
        if not self.response_times:
            return float("nan")
        return sum(self.response_times) / len(self.response_times)

    def percentile(self, p):
        """Linearly-interpolated ``p``-th percentile (0-100) of committed
        response times; NaN when nothing committed."""
        return linear_percentile(self.response_times, p)

    @property
    def p50_response_time(self):
        return self.percentile(50.0)

    @property
    def p95_response_time(self):
        return self.percentile(95.0)

    @property
    def p99_response_time(self):
        return self.percentile(99.0)

    @property
    def abort_percentage(self):
        total = self.finished
        if total == 0:
            return float("nan")
        return 100.0 * self.aborted / total

    @property
    def throughput(self):
        """Committed transactions per simulation time unit."""
        if (self.first_measured_at is None or self.last_measured_at is None
                or self.last_measured_at <= self.first_measured_at):
            return float("nan")
        return self.committed / (self.last_measured_at
                                 - self.first_measured_at)


@dataclass
class StreamingMetrics(RunMetrics):
    """Bounded-memory :class:`RunMetrics` for large-population runs.

    ``response_times`` stays an (always empty) list; committed response
    times feed a reservoir sample (percentiles), Welford running moments
    (mean/variance), and tumbling throughput windows instead. Everything
    else — counts, abort reasons, the measurement window — is identical
    to the exact path, so downstream consumers (summaries, CIs, reports)
    work unchanged.
    """

    reservoir: Optional[ReservoirSampler] = None
    moments: Optional[Welford] = None
    windows: Optional[WindowedThroughput] = None

    streaming = True

    def observe_response(self, response_time, end_time):
        self.moments.add(response_time)
        self.reservoir.add(response_time)
        self.windows.record(end_time)

    @property
    def mean_response_time(self):
        if self.moments.count == 0:
            return float("nan")
        return self.moments.mean

    def percentile(self, p):
        """Reservoir-estimated percentile (exact while seen <= capacity)."""
        return self.reservoir.percentile(p)


class MetricsCollector:
    """Receives transaction outcomes from the client drivers.

    The first ``warmup_transactions`` finished transactions are the
    transient phase: counted but excluded from every statistic, matching
    the paper's "transient phase of the simulation runs was eliminated".
    Response times are recorded for committed transactions (aborted ones
    are replaced, and contribute to the abort percentage instead).

    With ``streaming=True`` the collector produces a
    :class:`StreamingMetrics` instead: bounded memory regardless of run
    length, reservoir percentiles, running moments. The reservoir draws
    from ``reservoir_rng`` (its own stream, so the simulation trajectory
    is bit-identical whichever collector mode is attached).
    """

    def __init__(self, warmup_transactions=0, streaming=False,
                 reservoir_rng=None, reservoir_capacity=RESERVOIR_CAPACITY,
                 throughput_window=THROUGHPUT_WINDOW):
        if warmup_transactions < 0:
            raise ValueError("warmup_transactions must be >= 0")
        self.warmup_transactions = warmup_transactions
        self.streaming = streaming
        if streaming:
            if reservoir_rng is None:
                reservoir_rng = random.Random(8191)
            self.metrics = StreamingMetrics(
                reservoir=ReservoirSampler(reservoir_rng,
                                           capacity=reservoir_capacity),
                moments=Welford(),
                windows=WindowedThroughput(window=throughput_window))
        else:
            self.metrics = RunMetrics()
        self._seen = 0
        self._warmup_ended_at = None

    @property
    def measuring(self):
        """True once the warmup phase is over (the last recorded outcome
        was a measured one)."""
        return self._seen > self.warmup_transactions

    def record_outcome(self, outcome):
        self._seen += 1
        metrics = self.metrics
        if self._seen <= self.warmup_transactions:
            metrics.warmup_discarded += 1
            # The warmup boundary is when the last transient transaction
            # finished; the measurement window can only start there.
            self._warmup_ended_at = outcome.end_time
            return
        if metrics.first_measured_at is None:
            # The first measured transaction usually *started* during the
            # warmup phase; opening the throughput window at its start
            # would stretch the window into the transient phase and
            # understate throughput. Clamp to the warmup boundary.
            start = outcome.start_time
            if (self._warmup_ended_at is not None
                    and start < self._warmup_ended_at):
                start = self._warmup_ended_at
            metrics.first_measured_at = start
        metrics.last_measured_at = outcome.end_time
        if outcome.committed:
            metrics.committed += 1
            metrics.observe_response(outcome.response_time,
                                     outcome.end_time)
        else:
            metrics.aborted += 1
            reason = outcome.abort_reason or "unknown"
            metrics.abort_reasons[reason] = (
                metrics.abort_reasons.get(reason, 0) + 1)
