"""Periodic time-series probes sampled on a sim-time interval.

The sampler schedules itself on the simulation heap like any other timer;
its callbacks are strictly read-only (no protocol state is touched and no
random numbers are drawn), so enabling probes shifts heap sequence numbers
without perturbing the relative order — or the results — of the simulated
system.
"""


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
        self.samples_taken = 0

    def start(self):
        self.sim.call_later(self.interval, self._tick)
        return self

    def _tick(self):
        if self.stop_when is not None and self.stop_when():
            return  # run is over; stop rescheduling, drain quietly
        now = self.sim.now
        sample = self.tracer.probes.append
        for name, read in self.sources:
            sample((now, name, float(read())))
        self.samples_taken += 1
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
    class: lock-queue depth, forward-list occupancy, the adaptive
    controllers' state). Static-protocol probe traces carry no adaptive
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
