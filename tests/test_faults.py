"""Tests for the fault-injection layer: spec parsing, transport behaviour,
the reliable channel, crash recovery, and end-to-end determinism."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.runner import run_replications, run_simulation
from repro.network.faults import (
    ClientCrash,
    FaultInjector,
    FaultSpec,
    FaultStats,
    PartitionWindow,
    derive_recovery_times,
)
from repro.network.reliable import Reliable, ReliableAck, ReliableLink
from repro.network.topology import Site, UniformTopology
from repro.network.transport import Network
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError
from repro.sim.rng import RandomStreams


class Recorder(Site):
    def __init__(self, site_id, sim):
        super().__init__(site_id)
        self.sim = sim
        self.received = []

    def receive(self, envelope):
        self.received.append((self.sim.now, envelope.src, envelope.payload))


def make_faulty_net(spec, seed=1, latency=10.0, n_sites=3, bandwidth=None):
    sim = Simulator()
    injector = FaultInjector(FaultSpec.parse(spec),
                             RandomStreams(seed).spawn("faults"))
    net = Network(sim, UniformTopology(latency), bandwidth=bandwidth,
                  faults=injector)
    sites = [net.add_site(Recorder(i, sim)) for i in range(n_sites)]
    return sim, net, sites, injector


# -- spec parsing and validation ---------------------------------------------


class TestFaultSpec:
    def test_parse_full_spec(self):
        spec = FaultSpec.parse(
            "loss=0.05, dup=0.01, jitter=50, crash=3@10000:20000, "
            "crash=5@7000, part=5000:6000:1+2, rto=1200, backoff=3")
        assert spec.message_loss == 0.05
        assert spec.duplicate_probability == 0.01
        assert spec.extra_jitter == 50.0
        assert spec.crashes == (ClientCrash(3, 10000.0, 20000.0),
                                ClientCrash(5, 7000.0, None))
        assert spec.partitions == (
            PartitionWindow(5000.0, 6000.0, sites=(1, 2)),)
        assert spec.retry_timeout == 1200.0
        assert spec.retry_backoff == 3.0

    def test_parse_is_identity_on_spec_instances(self):
        spec = FaultSpec(message_loss=0.1)
        assert FaultSpec.parse(spec) is spec

    def test_parse_rejects_bad_clauses(self):
        with pytest.raises(ValueError, match="key=value"):
            FaultSpec.parse("loss")
        with pytest.raises(ValueError, match="unknown fault key"):
            FaultSpec.parse("bogus=1")
        with pytest.raises(ValueError, match="CLIENT@AT"):
            FaultSpec.parse("crash=3")
        with pytest.raises(ValueError, match="START:END:SITE"):
            FaultSpec.parse("part=5:6")

    def test_probabilities_validated(self):
        with pytest.raises(ValueError, match="message_loss"):
            FaultSpec(message_loss=1.0)
        with pytest.raises(ValueError, match="duplicate_probability"):
            FaultSpec(duplicate_probability=-0.1)
        with pytest.raises(ValueError, match="extra_jitter"):
            FaultSpec(extra_jitter=-5.0)
        with pytest.raises(ValueError, match="retry_backoff"):
            FaultSpec(retry_backoff=0.5)

    def test_crash_window_validated(self):
        with pytest.raises(ValueError, match="restart_at"):
            ClientCrash(1, at=100.0, restart_at=50.0)
        with pytest.raises(ValueError, match=">= 0"):
            ClientCrash(1, at=-1.0)
        assert ClientCrash(1, at=5.0).down_until == float("inf")

    def test_partition_window_validated(self):
        with pytest.raises(ValueError, match="start < end"):
            PartitionWindow(10.0, 10.0, sites=(1,))
        with pytest.raises(ValueError, match="isolates no sites"):
            PartitionWindow(0.0, 10.0)

    def test_spec_is_picklable(self):
        import pickle

        spec = FaultSpec.parse("loss=0.05,crash=2@100:200,part=5:6:1")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_derive_recovery_times_defaults(self):
        spec = FaultSpec(extra_jitter=25.0)
        rto, max_interval, chain, sweep = derive_recovery_times(spec, 500.0)
        round_trip = 2.0 * 525.0
        assert rto == pytest.approx(1.25 * round_trip + 1.0)
        assert max_interval == pytest.approx(16.0 * rto)
        assert chain == pytest.approx(10.0 * (round_trip + 10.0))
        assert sweep == pytest.approx(2.0 * rto)

    def test_derive_recovery_times_overrides(self):
        spec = FaultSpec(retry_timeout=100.0, max_retry_interval=900.0,
                         chain_timeout=5000.0, sweep_interval=250.0)
        assert derive_recovery_times(spec, 500.0) == (
            100.0, 900.0, 5000.0, 250.0)

    def test_stats_as_dict_prefixes_keys(self):
        stats = FaultStats(delivered=3, dropped_loss=1)
        as_dict = stats.as_dict()
        assert as_dict["faults_delivered"] == 3
        assert as_dict["faults_dropped_loss"] == 1
        assert all(key.startswith("faults_") for key in as_dict)


# -- transport-level fault behaviour -----------------------------------------


class TestFaultyTransport:
    def test_loss_drops_some_messages(self):
        sim, net, sites, injector = make_faulty_net("loss=0.5")
        for i in range(400):
            net.send(0, 1, i)
        sim.run()
        stats = injector.stats
        assert stats.delivered + stats.dropped_loss == 400
        assert 0 < stats.dropped_loss < 400
        assert len(sites[1].received) == stats.delivered

    def test_duplication_schedules_second_copies(self):
        sim, net, sites, injector = make_faulty_net("dup=0.9")
        for i in range(100):
            net.send(0, 1, i)
        sim.run()
        assert injector.stats.duplicated > 0
        assert len(sites[1].received) == 100 + injector.stats.duplicated

    def test_jitter_delays_within_bound_and_keeps_fifo(self):
        sim, net, sites, _ = make_faulty_net("jitter=50", latency=10.0)
        for i in range(50):
            net.send(0, 1, i)
        sim.run()
        payloads = [p for (_, _, p) in sites[1].received]
        assert payloads == list(range(50))
        # All sends happen at t=0, so even the FIFO clamp never pushes a
        # delivery past the worst single draw: latency + max jitter.
        for when, _, _ in sites[1].received:
            assert 10.0 <= when <= 60.0

    def test_partition_severs_only_inside_window(self):
        sim, net, sites, injector = make_faulty_net("part=0:100:1")
        net.send(0, 1, "during")       # severed: site 1 partitioned
        net.send(0, 2, "bystander")    # unaffected pair
        sim.call_later(150.0, net.send, 0, 1, "after")
        sim.run()
        assert injector.stats.dropped_partition == 1
        assert [p for (_, _, p) in sites[1].received] == ["after"]
        assert [p for (_, _, p) in sites[2].received] == ["bystander"]

    def test_crash_severs_overlapping_flights(self):
        # latency 10: a t=0 send lands at t=10, inside the [5, 100) crash
        # window of site 1, so it is severed; t=150 is after the restart.
        sim, net, sites, injector = make_faulty_net("crash=1@5:100")
        net.send(0, 1, "into-crash")
        net.send(0, 2, "bystander")
        sim.call_later(150.0, net.send, 0, 1, "after-restart")
        sim.run()
        assert injector.stats.dropped_crash == 1
        assert [p for (_, _, p) in sites[1].received] == ["after-restart"]
        assert [p for (_, _, p) in sites[2].received] == ["bystander"]

    def test_crash_check_runs_only_where_a_crash_window_is(self):
        sim, net, sites, injector = make_faulty_net(
            "dup=0.5,crash=1@500:600", n_sites=4)
        asked = []
        severed_by_crash = injector.severed_by_crash

        def recording(src, dst, send_time, deliver_time):
            asked.append((src, dst))
            return severed_by_crash(src, dst, send_time, deliver_time)

        injector.severed_by_crash = recording
        for _ in range(20):
            net.send(0, 2, "bystanders")
            net.send(3, 0, "bystanders")
        assert asked == []
        assert not injector.has_crash_window(0, 2)
        # ... and every copy to or from the site that will crash is
        # checked, long before its window opens
        assert injector.has_crash_window(1, 0)
        assert injector.has_crash_window(0, 1)
        before = injector.stats.delivered
        for _ in range(20):
            net.send(1, 0, "from")
            net.send(0, 1, "to")
        assert len(asked) == injector.stats.delivered - before >= 40
        assert set(asked) == {(1, 0), (0, 1)}
        assert injector.stats.dropped_crash == 0

    @pytest.mark.parametrize("src, dst", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("sent_at, severed", [
        (489.9, False),   # lands at 499.9, before the crash
        (490.0, True),    # lands exactly at `at`: the site is already down
        (495.0, True),    # in flight across `at`
        (550.0, True),    # sent and landing inside the window
        (599.9, True),    # in flight across `restart_at`
        (600.0, False),   # sent at `restart_at`: the site is back
    ])
    def test_flights_straddling_a_crash_window_edge(self, src, dst, sent_at,
                                                    severed):
        sim, net, sites, injector = make_faulty_net("crash=1@500:600",
                                                    latency=10.0)
        sim.call_later(sent_at, net.send, src, dst, "m")
        sim.run()
        assert injector.stats.dropped_crash == int(severed)
        assert len(sites[dst].received) == int(not severed)
        assert injector.severed_by_crash(src, dst, sent_at,
                                         sent_at + 10.0) is severed

    def test_failure_detector_windows(self):
        injector = make_faulty_net("crash=1@5:100")[3]
        assert not injector.is_crashed(1, 4.9)
        assert injector.is_crashed(1, 5.0)
        assert injector.is_crashed(1, 99.9)
        assert not injector.is_crashed(1, 100.0)
        assert not injector.is_crashed(2, 50.0)
        # crashed_during: any overlap, including crash+restart inside it
        assert injector.crashed_during(1, 0.0, 6.0)
        assert injector.crashed_during(1, 50.0, 60.0)
        assert injector.crashed_during(1, 99.0, 500.0)
        assert not injector.crashed_during(1, 100.0, 500.0)
        assert not injector.crashed_during(2, 0.0, 500.0)

    def test_dropped_message_still_reports_would_be_arrival(self):
        sim, net, _, _ = make_faulty_net("part=0:100:1", latency=10.0)
        envelope = net.send(0, 1, "doomed")
        assert envelope.deliver_time == 10.0


# -- the reliable channel ----------------------------------------------------


class ReliableSite(Site):
    """Minimal site speaking the reliable channel on both ends."""

    def __init__(self, site_id, sim):
        super().__init__(site_id)
        self.sim = sim
        self.link = None
        self.delivered = []

    def receive(self, envelope):
        payload = self.link.on_receive(envelope)
        if payload is not None:
            self.delivered.append(payload)


def make_reliable_pair(spec, seed=1, rto=30.0):
    sim = Simulator()
    injector = FaultInjector(FaultSpec.parse(spec),
                             RandomStreams(seed).spawn("faults"))
    net = Network(sim, UniformTopology(10.0), faults=injector)
    a = net.add_site(ReliableSite(0, sim))
    b = net.add_site(ReliableSite(1, sim))
    for site in (a, b):
        site.link = ReliableLink(sim, site, rto=rto)
    return sim, a, b


def retransmit_times(tracer):
    return [time for time, kind, _ in tracer.events
            if kind == "msg.retransmit"]


class TestReliableLink:
    def test_exactly_once_under_loss_and_duplication(self):
        sim, a, b = make_reliable_pair("loss=0.3,dup=0.2")
        for i in range(60):
            a.link.send(1, i)
        sim.run()
        # Every message arrives exactly once (retransmission may reorder
        # relative to later sequence numbers, so compare as a multiset).
        assert sorted(b.delivered) == list(range(60))
        assert a.link.retransmissions > 0

    def test_duplicates_suppressed_counted(self):
        sim, a, b = make_reliable_pair("dup=0.9")
        for i in range(40):
            a.link.send(1, i)
        sim.run()
        assert b.delivered == list(range(40))
        assert b.link.duplicates_suppressed > 0

    def test_dedup_windows_stay_bounded_over_a_long_lossy_run(self):
        """A receiver's window holds exactly the lanes it was handed: a
        gapless run, plus the ones that arrived ahead of a message still
        in flight — never more than the sender has sent since that one.
        Three sites, so each sender's ``seq`` skips what went elsewhere;
        once the traffic drains every window is a bare run."""
        sim = Simulator()
        injector = FaultInjector(FaultSpec.parse("loss=0.3,dup=0.2,jitter=25"),
                                 RandomStreams(3).spawn("faults"))
        net = Network(sim, UniformTopology(10.0), faults=injector)
        sites = [net.add_site(ReliableSite(i, sim)) for i in range(3)]
        for site in sites:
            site.link = ReliableLink(sim, site, rto=30.0)
        sent = {}   # (src, dst) -> messages sent; a payload is its lane

        def send(src, dst):
            lane = sent.get((src, dst), 0)
            sent[src, dst] = lane + 1
            sites[src].link.send(dst, (src, lane))

        def check():
            for dst, site in enumerate(sites):
                for (src, _), window in site.link._windows.items():
                    handed = {lane for who, lane in site.delivered
                              if who == src}
                    run = set(range(window.start, window.low))
                    assert run | window.others == handed
                    assert not run & window.others
                    assert window.low not in handed
                    if len(handed) < sent[src, dst]:   # one in flight
                        assert len(window.others) < (sent[src, dst]
                                                     - window.low)
                    else:
                        assert not window.others
                    peak[0] = max(peak[0], len(window.others))

        n, peak = 3000, [0]
        for i in range(n):
            src = i % 3
            sim.call_later(float(i), send, src, (src + 1 + i // 3 % 2) % 3)
        for when in range(0, n + 2000, 7):
            sim.call_later(float(when), check)
        sim.run()
        check()
        assert sum(len(site.delivered) for site in sites) == n
        assert 0 < peak[0] < n // 4
        for dst, site in enumerate(sites):
            for (src, _), window in site.link._windows.items():
                assert (window.start, window.low, window.others) == (
                    0, sent[src, dst], set())

    def test_no_faults_no_retransmissions(self):
        sim, a, b = make_reliable_pair("jitter=0")
        for i in range(10):
            a.link.send(1, i)
        sim.run()
        assert b.delivered == list(range(10))
        assert a.link.retransmissions == 0

    def test_crash_stops_retransmission_and_restart_bumps_incarnation(self):
        sim, a, b = make_reliable_pair("loss=0.3")
        a.link.send(1, "x")
        a.link.crash()
        assert a.link._pending == {}
        incarnation = a.link.incarnation
        a.link.restart()
        assert a.link.incarnation == incarnation + 1
        assert a.link._next_seq == 0

    def test_ack_frames_are_channel_internal(self):
        sim, a, b = make_reliable_pair("jitter=0")
        a.link.send(1, "payload")
        sim.run()
        assert b.delivered == ["payload"]
        assert a.delivered == []  # the ack never reaches the protocol

    def test_rto_must_be_positive(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ReliableLink(sim, None, rto=0.0)

    def test_wrappers_are_slotted_values(self):
        assert Reliable(inner="m", seq=3) == Reliable("m", 3, 0)
        assert ReliableAck(seq=3) == ReliableAck(3, 0)
        assert Reliable.__slots__ == ("inner", "seq", "incarnation", "lane")
        assert ReliableAck.__slots__ == ("seq", "incarnation")
        assert not hasattr(Reliable("m", 3), "__dict__")

    def test_a_site_down_for_good_is_retried_forever_at_the_cap(self):
        # 2.0 ** 1024 raises OverflowError: the exponent must stop growing
        # at the cap or the 1,025th retransmission never happens.
        sim, a, b = make_reliable_pair("crash=1@5", rto=30.0)
        tracer = sim.tracer = Tracer(sim)
        a.link.send(1, "x")
        sim.run(until=30.0 * 16 * 1100)
        times = retransmit_times(tracer)
        assert b.delivered == []
        assert a.link.retransmissions == len(times) > 1100
        # 30, 60, ... doubling to the cap, then exactly the cap apart
        assert times[:6] == [30.0, 90.0, 210.0, 450.0, 930.0, 1410.0]
        gaps = {later - earlier
                for earlier, later in zip(times[4:], times[5:])}
        assert gaps == {a.link.max_interval} == {480.0}

    @pytest.mark.parametrize("backoff, expected", [
        (1.0, [30.0] * 6),                              # never reaches it
        (1.5, [30.0, 45.0, 67.5, 101.25, 120.0, 120.0]),
        (3.0, [30.0, 90.0, 120.0, 120.0, 120.0, 120.0]),
    ])
    def test_backoff_delays_below_the_cap_are_the_uncapped_formula(
            self, backoff, expected):
        sim, a, b = make_reliable_pair("crash=1@5", rto=30.0)
        a.link = ReliableLink(sim, a, rto=30.0, backoff=backoff,
                              max_interval=120.0)
        tracer = sim.tracer = Tracer(sim)
        a.link.send(1, "x")
        sim.run(until=sum(expected))
        times = [0.0, *retransmit_times(tracer)]
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert gaps == expected
        assert gaps == [min(30.0 * backoff ** n, 120.0) for n in range(6)]


# -- end-to-end: protocols under faults --------------------------------------


SMOKE_FAULTS = "loss=0.05,dup=0.01,jitter=25,crash=2@6000:12000"


def faulted_config(protocol, **overrides):
    kwargs = dict(protocol=protocol, n_clients=4, n_items=6,
                  total_transactions=40, warmup_transactions=5,
                  faults=SMOKE_FAULTS, record_history=True)
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


class TestFaultedRuns:
    @pytest.mark.parametrize("protocol", ["s2pl", "g2pl"])
    def test_completes_serializable_under_loss_and_crash(self, protocol):
        result = run_simulation(faulted_config(protocol), seed=3)
        assert result.serializability is not None and result.serializability.ok
        assert result.metrics.committed > 0
        assert result.server_stats["faults_dropped_loss"] > 0
        assert result.server_stats["retransmissions"] > 0

    def test_crash_without_restart_is_survivable(self):
        result = run_simulation(
            faulted_config("s2pl", faults="loss=0.03,crash=1@4000"), seed=2)
        assert result.serializability.ok
        assert result.metrics.committed > 0

    def test_config_parses_fault_strings(self):
        config = faulted_config("s2pl")
        assert isinstance(config.faults, FaultSpec)
        assert config.faults.message_loss == 0.05

    def test_crash_requires_capable_protocol(self):
        with pytest.raises(ValueError, match="crash"):
            faulted_config("c2pl", faults="crash=1@100")

    def test_crash_on_unknown_client_rejected(self):
        with pytest.raises(ValueError, match="unknown client"):
            faulted_config("s2pl", faults="crash=9@100")

    def test_same_seed_reruns_are_bit_identical(self):
        first = run_simulation(faulted_config("g2pl"), seed=5)
        second = run_simulation(faulted_config("g2pl"), seed=5)
        assert first.metrics.mean_response_time \
            == second.metrics.mean_response_time
        assert first.duration == second.duration
        assert first.messages_sent == second.messages_sent
        assert first.server_stats == second.server_stats

    def test_faulted_sweep_bit_identical_across_jobs(self):
        config = SimulationConfig(
            protocol="g2pl", n_clients=3, n_items=5, total_transactions=30,
            warmup_transactions=5, record_history=True,
            faults="loss=0.05,dup=0.02,jitter=10,crash=2@3000:8000")
        serial = run_replications(config, replications=2, jobs=1)
        fanned = run_replications(config, replications=2, jobs=2)
        for a, b in zip(serial.runs, fanned.runs):
            assert a.metrics.mean_response_time \
                == b.metrics.mean_response_time
            assert a.metrics.abort_percentage == b.metrics.abort_percentage
            assert a.duration == b.duration
            assert a.messages_sent == b.messages_sent
            assert a.server_stats == b.server_stats

    def test_g2pl_stranded_chain_recovers(self, monkeypatch):
        # Regression: a chain whose only member died after handing the item
        # off left the item stranded forever (the watchdog kept re-arming on
        # an empty pending set) and the run livelocked. Repair now recovers
        # the item from the store. Run with a step cap so a regression fails
        # fast instead of hanging the suite.
        def capped(self, event):
            fired = []
            event.add_callback(fired.append)
            steps = 0
            while not fired and self.step():
                steps += 1
                if steps > 3_000_000:
                    raise AssertionError("livelock: step cap exceeded")
            if not fired:
                raise SimulationError(
                    "simulation ran out of events before the awaited "
                    "event fired")
            return event._value

        monkeypatch.setattr(Simulator, "_run_until_event", capped)
        config = SimulationConfig(
            protocol="g2pl", n_clients=6, n_items=8, total_transactions=80,
            warmup_transactions=10, record_history=True,
            faults="loss=0.03,dup=0.01,jitter=25,crash=2@8000:20000")
        result = run_simulation(config, seed=1)
        assert result.serializability.ok
        assert result.metrics.committed > 0

    def test_cli_run_accepts_faults(self, capsys):
        from repro.cli import main

        assert main(["run", "--protocol", "s2pl", "--clients", "3",
                     "--items", "5", "--transactions", "20", "--warmup", "2",
                     "--faults", "loss=0.1,jitter=20"]) == 0
        out = capsys.readouterr().out
        assert "faults_dropped_loss" in out
        assert "retransmissions" in out


#: the capability battery's crash cell (tests/test_capabilities.py)
BATTERY_CRASH = dict(n_clients=6, n_items=12, network_latency=40.0,
                     read_probability=0.5, total_transactions=48,
                     warmup_transactions=0,
                     faults="loss=0.02,crash=2@300:900")
#: the chaos smoke's config (tests/test_chaos.py)
CHAOS_CRASH = dict(n_clients=4, n_items=6, total_transactions=60,
                   warmup_transactions=10, faults=SMOKE_FAULTS)


@pytest.mark.parametrize("protocol, keywords, seed", [
    ("g2pl-ro", BATTERY_CRASH, 8),
    ("g2pl-ro", CHAOS_CRASH, 22),
    ("hybrid", BATTERY_CRASH, 8),
], ids=["g2pl-ro-battery-8", "g2pl-ro-chaos-22", "hybrid-battery-8"])
def test_grafted_readers_survive_a_crashed_chain_head(protocol, keywords,
                                                      seed):
    # A reader grafted onto a writer-free chain whose head then crashed
    # used to be dropped by chain repair: the item went home, a writer
    # overwrote it and the grafted reader still committed its stale read
    # (a non-serializable history). A lock is reclaimed from a failed
    # holder, never from its live sharers.
    config = SimulationConfig(protocol=protocol, record_history=True,
                              **keywords)
    # raises on a non-serializable or non-strict history
    result = run_simulation(config, seed=seed)
    assert result.serializability.ok
    assert result.metrics.committed > 0
