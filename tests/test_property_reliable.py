"""Differential tests for the reliable channel and the faulted send loop.

The shipped :class:`~repro.network.reliable.ReliableLink` (cancel tokens,
first transmission inlined) must be indistinguishable from the
``Timer``-based one it replaced (kept as
:class:`tests.helpers.TimerReliableLink`), down to the heap: same
deliveries at the same times, same counters, same number of heap entries
pushed, skipped and pending at the deepest point. And a tracer must only
watch: the faulted ``Network.send`` takes its counter snapshots under
``tracer is not None``, so the traced run is checked against the untraced
one on a fault mix (partitions included) no golden cell has.
"""

from helpers import TimerReliableLink
from hypothesis import given, settings, strategies as st

from repro.network.faults import (
    ClientCrash,
    FaultInjector,
    FaultSpec,
    PartitionWindow,
)
from repro.network.reliable import ReliableLink
from repro.network.topology import Site, UniformTopology
from repro.network.transport import Network
from repro.obs.schema import validate_trace
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

LATENCY = 10.0
RTO = 30.0
HORIZON = 4000.0   # a down-for-good site is retried forever; stop here


class LinkedSite(Site):
    """A site that speaks the reliable channel and logs what it hands up."""

    def __init__(self, site_id, sim, log):
        super().__init__(site_id)
        self.sim = sim
        self.log = log
        self.link = None

    def receive(self, envelope):
        payload = self.link.on_receive(envelope)
        if payload is not None:
            self.log.append((self.sim.now, self.site_id, payload))


def run_scenario(link_class, scenario, traced=False):
    """Everything observable about one run of ``scenario``."""
    seed, spec, n_sites, backoff, sends = scenario
    sim = Simulator()
    injector = FaultInjector(spec, RandomStreams(seed).spawn("faults"))
    net = Network(sim, UniformTopology(LATENCY), faults=injector)
    tracer = None
    if traced:
        tracer = sim.tracer = Tracer(sim)
        tracer.bind_network(net)
    log = []
    sites = [net.add_site(LinkedSite(i, sim, log)) for i in range(n_sites)]
    for site in sites:
        site.link = link_class(sim, site, RTO, backoff=backoff)
    for crash in spec.crashes:
        link = sites[crash.client_id].link
        sim.call_later(crash.at, link.crash)
        if crash.restart_at is not None:
            sim.call_later(crash.restart_at, link.restart)
    for index, (src, hop, delay) in enumerate(sends):
        src %= n_sites
        dst = (src + 1 + hop % (n_sites - 1)) % n_sites   # never src
        sim.call_later(delay, sites[src].link.send, dst, f"m{index}")
    sim.run(until=HORIZON)
    observed = dict(
        log=log,
        retransmissions=[site.link.retransmissions for site in sites],
        duplicates_suppressed=[site.link.duplicates_suppressed
                               for site in sites],
        pending=[sorted(site.link._pending) for site in sites],
        faults=injector.stats.as_dict(),
        per_type=net.stats.per_type,
        messages_sent=net.stats.messages_sent,
        processed_events=sim.processed_events,
        cancelled_events=sim.cancelled_events,
        peak_heap_depth=sim.peak_heap_depth,
    )
    return observed, tracer


@st.composite
def scenarios(draw):
    n_sites = draw(st.integers(2, 4))
    site = st.integers(0, n_sites - 1)
    partitions = ()
    if draw(st.booleans()):
        start = draw(st.floats(0.0, 300.0))
        partitions = (PartitionWindow(
            start, start + draw(st.floats(1.0, 200.0)), (draw(site),)),)
    crashes = ()
    if draw(st.booleans()):
        at = draw(st.floats(0.0, 300.0))
        restart = draw(st.one_of(st.none(), st.floats(1.0, 400.0)))
        crashes = (ClientCrash(draw(site), at,
                               None if restart is None else at + restart),)
    spec = FaultSpec(
        message_loss=draw(st.sampled_from([0.0, 0.1, 0.4])),
        duplicate_probability=draw(st.sampled_from([0.0, 0.1, 0.4])),
        extra_jitter=draw(st.sampled_from([0.0, 5.0, 40.0])),
        partitions=partitions, crashes=crashes)
    sends = draw(st.lists(
        st.tuples(st.integers(0, 3),    # src, modulo the site count
                  st.integers(0, 2),    # dst = the hop-th other site
                  st.floats(0.0, 500.0)),
        min_size=1, max_size=25))
    backoff = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return draw(st.integers(0, 2**20)), spec, n_sites, backoff, sends


@given(scenarios())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_token_link_matches_the_timer_link_down_to_the_heap(scenario):
    shipped, _ = run_scenario(ReliableLink, scenario)
    oracle, _ = run_scenario(TimerReliableLink, scenario)
    assert shipped == oracle


@given(scenarios())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_tracer_only_watches_the_faulted_send_loop(scenario):
    untraced, _ = run_scenario(ReliableLink, scenario)
    traced, tracer = run_scenario(ReliableLink, scenario, traced=True)
    assert traced == untraced
    assert validate_trace(tracer.finish()) == []
    # the snapshots taken only under a tracer replay exactly this run's
    # drops and duplicates
    faults = traced["faults"]
    drops = {cause: faults[f"faults_dropped_{cause}"]
             for cause in ("loss", "partition", "crash")}
    assert tracer.drops_by_cause == {
        cause: count for cause, count in drops.items() if count}
    assert tracer.duplicates_injected == faults["faults_duplicated"]
    assert tracer.messages_sent == traced["messages_sent"]
    assert tracer.retransmissions == sum(traced["retransmissions"])
    assert tracer.duplicates_suppressed == sum(
        traced["duplicates_suppressed"])
