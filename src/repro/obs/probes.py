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


def _total(servers, gauge):
    """A reader of ``gauge()`` summed over ``servers``; one server's own
    bound method when there is only one (every tick calls it)."""
    readers = [getattr(server, gauge) for server in servers]
    if len(readers) == 1:
        return readers[0]
    return lambda: sum(read() for read in readers)


def default_sources(sim, network, server, tracer, drivers=None):
    """The standard gauge set: heap pending, in-flight messages, and —
    when the protocol server(s) expose them — lock-queue depth and
    forward-list occupancy.

    ``server`` may be a single protocol server or a list of them (sharded
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
    with_queue = [s for s in servers if hasattr(s, "queue_depth")]
    if with_queue:
        sources.append(("lock_queue_depth", _total(with_queue, "queue_depth")))
    with_fl = [s for s in servers if hasattr(s, "fl_occupancy")]
    if with_fl:
        sources.append(("fl_occupancy", _total(with_fl, "fl_occupancy")))
    adaptive = [s for s in servers if hasattr(s, "window_depth")]
    if adaptive:
        # Adaptive controllers (repro.adapt): the window-occupancy signal
        # the window controller feeds on, plus live controller state.
        # Gated on the adaptive server type so static-protocol probe
        # traces (and their goldens) are unchanged.
        sources.append(("window_occupancy", _total(adaptive, "window_depth")))
        sources.append(("adapt_hold_pending",
                        _total(adaptive, "hold_pending")))
        sources.append(("hybrid_single_items",
                        _total(adaptive, "single_mode_items")))
        sources.append(("spec_outstanding",
                        _total(adaptive, "spec_outstanding")))
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
