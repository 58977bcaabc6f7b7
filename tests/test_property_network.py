"""Property-based tests for the network transport."""

from hypothesis import given, settings, strategies as st

from helpers import MatrixTopology
from repro.network.faults import FaultInjector, FaultSpec
from repro.network.topology import Site, UniformTopology
from repro.network.transport import Network
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


class Recorder(Site):
    def __init__(self, site_id, sim):
        super().__init__(site_id)
        self.sim = sim
        self.received = []

    def receive(self, envelope):
        self.received.append((self.sim.now, envelope.src, envelope.payload))


SENDS = st.lists(
    st.tuples(st.integers(0, 3),             # src
              st.integers(0, 3),             # dst
              st.floats(min_value=0.0, max_value=50.0,
                        allow_nan=False)),   # send delay
    max_size=30,
)


@given(SENDS, st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_every_message_arrives_after_exactly_the_latency(sends, latency):
    sim = Simulator()
    net = Network(sim, UniformTopology(latency))
    sites = [net.add_site(Recorder(i, sim)) for i in range(4)]
    expected = []
    for index, (src, dst, delay) in enumerate(sends):
        wire = 0.0 if src == dst else latency
        sim.call_later(delay, net.send, src, dst, f"m{index}")
        expected.append((dst, delay + wire, f"m{index}"))
    sim.run()
    got = {(dst,) + (when, payload)
           for dst in range(4)
           for (when, _src, payload) in sites[dst].received}
    assert got == {(dst, when, payload)
                   for dst, when, payload in expected}


@given(st.lists(st.text(alphabet="ab", min_size=1, max_size=3),
                min_size=1, max_size=20),
       st.floats(min_value=0.1, max_value=50.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_fifo_per_pair(payloads, latency):
    sim = Simulator()
    net = Network(sim, UniformTopology(latency))
    net.add_site(Recorder(0, sim))
    receiver = net.add_site(Recorder(1, sim))
    for payload in payloads:
        net.send(0, 1, payload)
    sim.run()
    assert [p for (_, _, p) in receiver.received] == payloads


@given(st.lists(st.tuples(st.integers(0, 2),     # src
                          st.integers(0, 2),     # dst
                          st.floats(min_value=0.1, max_value=200.0,
                                    allow_nan=False)),  # size
                min_size=1, max_size=30),
       st.one_of(st.none(),
                 st.floats(min_value=0.1, max_value=10.0, allow_nan=False)),
       st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
       st.integers(0, 2**20))
@settings(max_examples=200, deadline=None)
def test_fifo_per_pair_for_any_sizes_bandwidth_and_jitter(
        sends, bandwidth, jitter, seed):
    """Per-(src, dst) delivery order equals send order no matter how
    size-dependent (finite bandwidth) or randomised (fault jitter) the
    individual wire delays are — the per-link clamp serialises each pair."""
    sim = Simulator()
    faults = None
    if jitter:
        faults = FaultInjector(FaultSpec(extra_jitter=jitter),
                               RandomStreams(seed).spawn("faults"))
    net = Network(sim, UniformTopology(5.0), bandwidth=bandwidth,
                  faults=faults)
    sites = [net.add_site(Recorder(i, sim)) for i in range(3)]
    for index, (src, dst, size) in enumerate(sends):
        net.send(src, dst, (src, dst, index), size=size)
    sim.run()
    for site in sites:
        per_pair = {}
        for _when, _src, (src, dst, index) in site.received:
            per_pair.setdefault((src, dst), []).append(index)
        for indices in per_pair.values():
            assert indices == sorted(indices)


@given(st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(
        lambda e: e[0] != e[1]),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    max_size=6),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_matrix_topology_delivery_times(latencies, default):
    sim = Simulator()
    topo = MatrixTopology(latencies, default=default)
    net = Network(sim, topo)
    sites = [net.add_site(Recorder(i, sim)) for i in range(3)]
    for src in range(3):
        for dst in range(3):
            if src != dst:
                net.send(src, dst, (src, dst))
    sim.run()
    for dst in range(3):
        for when, src, payload in sites[dst].received:
            assert when == topo.latency(src, dst)


@given(st.lists(st.floats(min_value=0.1, max_value=100.0,
                          allow_nan=False), min_size=1, max_size=20))
@settings(max_examples=100, deadline=None)
def test_stats_accumulate_sizes(sizes):
    sim = Simulator()
    net = Network(sim, UniformTopology(1.0))
    net.add_site(Recorder(0, sim))
    net.add_site(Recorder(1, sim))
    for size in sizes:
        net.send(0, 1, "x", size=size)
    sim.run()
    assert net.stats.messages_sent == len(sizes)
    assert net.stats.data_units_sent == sum(sizes)
