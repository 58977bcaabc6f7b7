"""Unit tests for the network substrate."""

import pytest

from helpers import MatrixTopology
from repro.network import (
    Network,
    NetworkEnvironment,
    Site,
    TABLE2_ENVIRONMENTS,
    UniformTopology,
    environment_for_latency,
)
from repro.network.faults import FaultInjector, FaultSpec
from repro.obs.tracer import Tracer
from repro.sim import Simulator
from repro.sim.rng import RandomStreams


class Recorder(Site):
    """Test site that records (time, src, payload) for every delivery."""

    def __init__(self, site_id, sim):
        super().__init__(site_id)
        self.sim = sim
        self.received = []

    def receive(self, envelope):
        self.received.append((self.sim.now, envelope.src, envelope.payload))


def make_net(latency=10.0, n_sites=3, bandwidth=None):
    sim = Simulator()
    net = Network(sim, UniformTopology(latency), bandwidth=bandwidth)
    sites = [net.add_site(Recorder(i, sim)) for i in range(n_sites)]
    return sim, net, sites


def test_delivery_after_uniform_latency():
    sim, net, sites = make_net(latency=10.0)
    net.send(0, 1, "hello")
    sim.run()
    assert sites[1].received == [(10.0, 0, "hello")]


def test_latency_symmetric_between_pairs():
    sim, net, sites = make_net(latency=7.0)
    net.send(0, 2, "a")
    net.send(2, 0, "b")
    sim.run()
    assert sites[2].received == [(7.0, 0, "a")]
    assert sites[0].received == [(7.0, 2, "b")]


def test_self_send_is_instant():
    sim, net, sites = make_net(latency=10.0)
    net.send(1, 1, "loopback")
    sim.run()
    assert sites[1].received == [(0.0, 1, "loopback")]


def test_fifo_on_same_pair():
    sim, net, sites = make_net(latency=5.0)
    net.send(0, 1, "first")
    net.send(0, 1, "second")
    sim.run()
    assert [p for (_, _, p) in sites[1].received] == ["first", "second"]


def test_same_timestamp_sends_are_one_heap_entry_each():
    # Five sends on one link at one timestamp: delivered in send order,
    # and the engine's counters see five entries before, during and after.
    sim, net, sites = make_net(latency=10.0)
    for payload in range(5):
        net.send(0, 1, payload)
    assert sim.pending == 5
    sim.run()
    assert sites[1].received == [(10.0, 0, p) for p in range(5)]
    assert sim.processed_events == 5
    assert sim.peak_heap_depth == 5
    assert sim.pending == 0


def test_fifo_small_after_large_under_finite_bandwidth():
    # Regression: without the per-link delivery-time clamp the second
    # (small) message's shorter transmission time let it overtake the
    # first, breaking the FIFO guarantee the protocols rely on.
    sim, net, sites = make_net(latency=5.0, bandwidth=1.0)
    net.send(0, 1, "large", size=100.0)        # arrives at 5 + 100 = 105
    small = net.send(0, 1, "small", size=1.0)  # unclamped: 5 + 1 = 6
    sim.run()
    assert [p for (_, _, p) in sites[1].received] == ["large", "small"]
    assert small.deliver_time == pytest.approx(105.0)


def test_fifo_clamp_is_per_link():
    # A slow transfer on one pair must not delay traffic on other pairs.
    sim, net, sites = make_net(latency=5.0, bandwidth=1.0)
    net.send(0, 1, "slow", size=100.0)
    net.send(0, 2, "fast", size=1.0)
    net.send(2, 1, "cross", size=1.0)
    sim.run()
    assert sites[2].received[0][0] == pytest.approx(6.0)
    assert sites[1].received[0] == (pytest.approx(6.0), 2, "cross")


def test_infinite_bandwidth_ignores_size():
    sim, net, sites = make_net(latency=5.0)
    net.send(0, 1, "big", size=10_000)
    sim.run()
    assert sites[1].received[0][0] == 5.0


def test_finite_bandwidth_adds_transmission_time():
    sim, net, sites = make_net(latency=5.0, bandwidth=2.0)
    net.send(0, 1, "payload", size=8.0)  # 8 units / 2 units-per-time = 4
    sim.run()
    assert sites[1].received[0][0] == pytest.approx(9.0)


def test_bandwidth_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, UniformTopology(1.0), bandwidth=0)


def test_unknown_sites_rejected():
    sim, net, _ = make_net()
    with pytest.raises(KeyError):
        net.send(0, 99, "x")
    with pytest.raises(KeyError):
        net.send(99, 0, "x")


def test_tracer_attached_after_construction_sees_traffic():
    # Regression: send used to be bound to the untraced variant when the
    # Network was built, so a tracer attached later recorded nothing
    # unless the caller remembered to rebind.
    sim, net, sites = make_net(latency=10.0)
    tracer = sim.tracer = Tracer(sim)
    net.send(0, 1, "traced")
    sim.run()
    assert tracer.messages_sent == 1
    assert [kind for _, kind, _ in tracer.events] == [
        "msg.send", "msg.deliver"]
    sim.tracer = None
    net.send(0, 1, "untraced")
    sim.run()
    assert tracer.messages_sent == 1
    assert len(tracer.events) == 2
    assert [p for (_, _, p) in sites[1].received] == ["traced", "untraced"]


def test_duplicate_site_id_rejected():
    sim, net, _ = make_net()
    with pytest.raises(ValueError):
        net.add_site(Recorder(0, sim))


def test_site_send_helper():
    sim, net, sites = make_net(latency=3.0)
    sites[0].send(1, "via helper")
    sim.run()
    assert sites[1].received == [(3.0, 0, "via helper")]


def test_detached_site_send_raises():
    site = Recorder(42, Simulator())
    with pytest.raises(RuntimeError):
        site.send(0, "x")


def test_stats_count_messages_and_units():
    sim, net, _ = make_net()
    net.send(0, 1, "a", size=2.0)
    net.send(1, 2, "b", size=3.0)
    sim.run()
    assert net.stats.messages_sent == 2
    assert net.stats.data_units_sent == 5.0
    assert net.stats.per_type == {"str": 2}


def test_envelope_metadata():
    sim, net, sites = make_net(latency=4.0)
    envelope = net.send(0, 1, "meta")
    assert envelope.send_time == 0.0
    assert envelope.deliver_time == 4.0


def test_negative_latency_rejected():
    with pytest.raises(ValueError):
        UniformTopology(-1.0)
    with pytest.raises(ValueError):
        MatrixTopology({(0, 1): -2.0})
    with pytest.raises(ValueError):
        MatrixTopology({}, default=-1.0)


class _DuckTopology:
    """A topology the constructors cannot validate: any ``latency``."""

    def __init__(self, latency):
        self.value = latency

    def latency(self, src, dst):
        return self.value


@pytest.mark.parametrize("latency", [-1.0, float("nan")])
@pytest.mark.parametrize("bandwidth", [None, 4.0])
def test_bad_link_latency_raises_on_first_send(latency, bandwidth):
    """The fault-free send pushes deliveries onto the heap without the
    per-call ``when >= now`` check of ``schedule_at``; the check is made
    once per link, when its latency is memoised, so a bad latency still
    fails on the first send and nothing reaches the heap."""
    sim = Simulator()
    net = Network(sim, _DuckTopology(latency), bandwidth=bandwidth)
    for i in range(2):
        net.add_site(Recorder(i, sim))
    with pytest.raises(ValueError, match="latency"):
        net.send(0, 1, "early")
    assert sim.pending == 0
    assert net.link_latency == {}


def test_matrix_topology_lookup_and_symmetry():
    topo = MatrixTopology({(0, 1): 5.0, (1, 2): 7.0}, default=100.0)
    assert topo.latency(0, 1) == 5.0
    assert topo.latency(1, 0) == 5.0  # symmetric fallback
    assert topo.latency(2, 1) == 7.0
    assert topo.latency(0, 2) == 100.0  # default
    assert topo.latency(1, 1) == 0.0


def test_matrix_topology_asymmetric_override():
    topo = MatrixTopology({(0, 1): 5.0, (1, 0): 9.0})
    assert topo.latency(0, 1) == 5.0
    assert topo.latency(1, 0) == 9.0


def test_table2_matches_paper():
    expected = {
        "SS_LAN": 1.0,
        "MS_LAN": 50.0,
        "CAN": 100.0,
        "MAN": 250.0,
        "S_WAN": 500.0,
        "L_WAN": 750.0,
    }
    assert {env.name: env.latency for env in TABLE2_ENVIRONMENTS} == expected


def test_environment_for_latency():
    assert environment_for_latency(500.0) is NetworkEnvironment.S_WAN
    assert environment_for_latency(123.0) is None


@pytest.mark.parametrize("duplicates", [False, True],
                         ids=["plain", "duplicating"])
def test_late_tracer_in_flight_gauge_stays_sane(duplicates):
    # A tracer attached mid-run sees deliveries of sends it never
    # counted (and, under duplication, twice). The gauge must not go
    # negative on them and must read 0 again once the heap drains.
    sim, net, sites = make_net(latency=10.0)
    if duplicates:
        net.faults = FaultInjector(
            FaultSpec(duplicate_probability=0.9, extra_jitter=3.0),
            RandomStreams(7).spawn("faults"))
    for index in range(4):
        net.send(0, 1, f"early-{index}")
        net.send(1, 0, f"early-back-{index}")
    sim.run(until=5.0)
    tracer = sim.tracer = Tracer(sim)
    for index in range(4):
        net.send(0, 1, f"late-{index}")
        net.send(2, 1, f"late-other-{index}")
    assert tracer.in_flight_total >= 8
    readings = []
    while sim.step():
        readings.append(tracer.in_flight_total)
    assert min(readings) >= 0
    assert readings[-1] == 0 and tracer.in_flight_total == 0
    delivered = sum(1 for _, kind, _ in tracer.events
                    if kind == "msg.deliver")
    assert delivered == len(readings) >= 16
