"""Periodic time-series probes sampled on a sim-time interval.

The sampler schedules itself on the simulation heap like any other timer;
its callbacks are strictly read-only (no protocol state is touched and no
random numbers are drawn), so enabling probes shifts heap sequence numbers
without perturbing the relative order — or the results — of the simulated
system. The series set is fixed when the sampler is built, so a tick is
kept as what varies: its time and one value per series, each in a typed
column of a :class:`ProbeLog` (16,479 ticks for the 65,916 samples of the
ledger's ``traced_g2pl``), read back as ``(time, series, value)``
triples.
"""

from functools import reduce
from itertools import chain
from operator import add

from repro.obs.columns import STAGE, extend


class ProbeLog:
    """The captured gauge samples, iterated as ``(time, series, value)``
    triples (``len``, iteration and pickling count and read them so).

    A tick, ``(time, v0, ..., vn)`` in the order of ``names``, is staged
    by :meth:`tick` and settled into ``times`` and one typed column per
    series in ``values`` (see :mod:`repro.obs.columns`)."""

    def __init__(self):
        self.names = ()   # series of every tick, in source order
        self.times = []   # one clock reading per tick: a column
        self.values = []  # one column per series
        self.staged = []  # [(time, v0, ..., vn)] not yet settled

    def declare(self, names):
        """Name the ticks' series (the sampler, before any tick)."""
        names = tuple(names)
        if self.times or self.staged or len(set(names)) != len(names):
            raise ValueError(f"cannot declare probe series {names}: "
                             f"ticks already taken, or a name twice")
        self.names = names
        self.values = [[] for _ in names]

    def tick(self, row):
        """One tick's ``(time, v0, ..., vn)``."""
        if len(row) != len(self.names) + 1:
            raise ValueError(f"probe tick {row!r} does not hold a time "
                             f"and one value per series of {self.names}")
        staged = self.staged
        staged.append(row)
        if len(staged) >= STAGE:
            self.settle()

    def settle(self):
        """Move the staged ticks into the columns."""
        staged = self.staged
        if not staged:
            return
        columns = zip(*staged)
        self.times = extend(self.times, next(columns))
        self.values = [extend(column, values)
                       for column, values in zip(self.values, columns)]
        staged.clear()

    def __len__(self):
        return (len(self.times) + len(self.staged)) * len(self.names)

    def __iter__(self):
        self.settle()
        names = self.names
        for time, *values in zip(self.times, *self.values):
            for name, value in zip(names, values):
                yield time, name, value

    def __getstate__(self):
        self.settle()
        return self.__dict__

    def series(self):
        """``{series: {"n", "sum", "max"}}`` as one loop over the triples
        would add them up: left to right from 0.0 (``sum()`` compensates
        since 3.12) and ``>`` from ``-inf`` (plain ``max()`` keeps a NaN)."""
        self.settle()
        columns = dict(zip(self.names, self.values)) if self.times else {}
        return {name: {"n": len(column), "sum": reduce(add, column, 0.0),
                       "max": max(chain((float("-inf"),), column))}
                for name, column in columns.items()}


class ProbeSampler:
    """Samples a set of named gauges every ``interval`` sim-time units."""

    def __init__(self, sim, tracer, interval, sources, stop_when=None):
        if interval <= 0:
            raise ValueError(f"probe interval must be positive, "
                             f"got {interval!r}")
        self.sim = sim
        self.tracer = tracer
        self.interval = interval
        self.sources = list(sources)   # [(name, zero-arg callable), ...]
        self.stop_when = stop_when
        tracer.probes.declare(name for name, _ in self.sources)

    def start(self):
        self.sim.call_later(self.interval, self._tick)
        return self

    def _tick(self):
        if self.stop_when is not None and self.stop_when():
            return  # run is over; stop rescheduling, drain quietly
        row = [self.sim.now]
        for _, read in self.sources:
            row.append(float(read()))
        self.tracer.probes.tick(tuple(row))
        self.sim.call_later(self.interval, self._tick)


def _total(readers):
    """A reader of the sum of ``readers``; the one reader itself when
    there is only one (every tick calls it)."""
    if len(readers) == 1:
        return readers[0]
    return lambda: sum(read() for read in readers)


def default_sources(sim, network, server, tracer, drivers=None):
    """The standard gauge set: heap pending, in-flight messages, and the
    series the protocol server(s) declare (``gauges`` on the server
    class: lock-queue depth, forward-list occupancy, hybrid's
    single-mode item count). Static-protocol probe traces carry no hybrid
    series because the static servers declare none.

    ``server`` may be a single site or a list of servers (sharded
    deployments); multi-server gauges report the sum over all shards, and
    a one-element list produces exactly the single-server series.

    ``drivers`` (optional) adds population gauges for any driver exposing
    a :class:`~repro.workload.population.PopulationState` (``.state``):
    in-flight transactions, busy-user skips, and admission-shed counts —
    aggregated plus a per-site in-flight series. Closed-loop
    :class:`ClientDriver`\\ s have no ``state`` and contribute nothing, so
    pre-population probe traces are unchanged.
    """
    servers = list(server) if isinstance(server, (list, tuple)) else [server]
    sources = [
        ("heap_pending", lambda: sim.pending),
        ("in_flight_msgs", lambda: tracer.in_flight_total),
    ]
    readers = {}   # series -> one bound gauge method per server
    for site in servers:
        for series, method in site.gauges:
            readers.setdefault(series, []).append(getattr(site, method))
    sources.extend((series, _total(reads))
                   for series, reads in readers.items())
    popn = [d for d in (drivers or []) if hasattr(d, "state")]
    if popn:
        sources.append(("popn_inflight",
                        lambda: sum(len(d.state.active) for d in popn)))
        sources.append(("popn_busy_skipped",
                        lambda: sum(d.state.busy_skipped for d in popn)))
        sources.append(("popn_shed",
                        lambda: sum(d.state.shed for d in popn)))
        for driver in popn:
            sources.append((f"popn_inflight.site{driver.client_id}",
                            lambda d=driver: len(d.state.active)))
    return sources
