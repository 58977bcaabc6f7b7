"""Tests for open-arrival client populations: arrival processes, the
transaction mix, Zipf sampling, the population driver, and end-to-end
determinism of population runs."""

import copy
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.workload.population as population_mod
from repro.core.config import SimulationConfig
from repro.core.parallel import SimulationCell, run_cells
from repro.core.runner import assemble, run_simulation
from repro.obs.export import write_jsonl
from repro.perf.fingerprint import result_fingerprint
from repro.protocols.transaction import TxnOutcome
from repro.sim import RandomStreams, Simulator
from repro.stats.collector import MetricsCollector
from repro.workload.arrivals import (
    BurstArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.workload.driver import RunControl
from repro.workload.generator import WorkloadParams
from repro.workload.population import (
    OpenArrivalGenerator,
    PopulationDriver,
    TransactionClass,
    ZipfItemSampler,
    default_classes,
    parse_txn_mix,
    split_population,
)

from helpers import EagerPopulationDriver


def popn_config(**overrides):
    base = dict(protocol="g2pl", n_clients=8, n_items=50, population=400,
                arrival_rate=2e-4, total_transactions=120,
                warmup_transactions=12, record_history=False, seed=7)
    base.update(overrides)
    return SimulationConfig(**base)


class TestArrivalProcesses:
    def test_poisson_interarrival_statistics(self):
        # Exponential(rate): mean 1/rate, std 1/rate (CV = 1).
        rate = 0.25
        process = PoissonArrivals(random.Random(11), rate)
        now, gaps = 0.0, []
        for _ in range(20_000):
            nxt = process.next_arrival(now)
            gaps.append(nxt - now)
            now = nxt
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / (len(gaps) - 1)
        assert mean == pytest.approx(1.0 / rate, rel=0.05)
        assert math.sqrt(var) == pytest.approx(1.0 / rate, rel=0.05)

    def test_arrivals_strictly_advance(self):
        for process in (PoissonArrivals(random.Random(1), 0.5),
                        BurstArrivals(random.Random(2), 0.5),
                        DiurnalArrivals(random.Random(3), 0.5)):
            now = 0.0
            for _ in range(500):
                nxt = process.next_arrival(now)
                assert nxt > now
                now = nxt

    def test_burst_preserves_mean_rate(self):
        rate = 0.2
        process = BurstArrivals(random.Random(5), rate, burst_factor=6.0,
                                on_fraction=0.1, period=500.0)
        assert process.on_rate == pytest.approx(6.0 * rate)
        # Long-run mean: on_fraction*on + (1-on_fraction)*off == base.
        mean = (0.1 * process.on_rate + 0.9 * process.off_rate)
        assert mean == pytest.approx(rate)
        now, count = 0.0, 0
        horizon = 200_000.0
        while True:
            now = process.next_arrival(now)
            if now > horizon:
                break
            count += 1
        assert count / horizon == pytest.approx(rate, rel=0.05)

    def test_burst_rate_profile(self):
        process = BurstArrivals(random.Random(1), 1.0, burst_factor=4.0,
                                on_fraction=0.2, period=100.0)
        assert process.rate_at(5.0) == process.on_rate
        assert process.rate_at(50.0) == process.off_rate
        assert process.rate_at(105.0) == process.on_rate  # next period

    def test_diurnal_rate_profile(self):
        process = DiurnalArrivals(random.Random(1), 1.0, period=100.0,
                                  amplitude=0.5)
        assert process.rate_at(25.0) == pytest.approx(1.5)   # sin peak
        assert process.rate_at(75.0) == pytest.approx(0.5)   # sin trough
        assert process.rate_at(0.0) == pytest.approx(1.0)
        assert process.peak_rate == pytest.approx(1.5)

    def test_validation(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            PoissonArrivals(rng, 0.0)
        with pytest.raises(ValueError):
            BurstArrivals(rng, 1.0, on_fraction=1.5)
        with pytest.raises(ValueError):
            BurstArrivals(rng, 1.0, burst_factor=0.5)
        with pytest.raises(ValueError):
            # off-phase rate would be negative: 4 * 0.3 > 1
            BurstArrivals(rng, 1.0, burst_factor=4.0, on_fraction=0.3)
        with pytest.raises(ValueError):
            DiurnalArrivals(rng, 1.0, amplitude=1.0)

    def test_factory_dispatch(self):
        config = popn_config()
        rng = random.Random(1)
        assert isinstance(make_arrivals(config, rng, 1.0), PoissonArrivals)
        assert isinstance(
            make_arrivals(config.replace(arrival="burst"), rng, 1.0),
            BurstArrivals)
        assert isinstance(
            make_arrivals(config.replace(arrival="diurnal"), rng, 1.0),
            DiurnalArrivals)


class TestTxnMix:
    def test_parse_round_trip(self):
        classes = parse_txn_mix("browse:6:1-3:0.9,update:3:2-5:0.3",
                                n_items=25)
        assert [c.name for c in classes] == ["browse", "update"]
        assert classes[0] == TransactionClass("browse", 6.0, 1, 3, 0.9)
        assert classes[1].read_probability == 0.3

    @pytest.mark.parametrize("bad", [
        "", "browse", "browse:1:1-3", "browse:1:3:0.9",
        "browse:0:1-3:0.9", "browse:1:3-1:0.9", "browse:1:1-3:1.5",
        "browse:1:1-3:0.9,browse:2:1-3:0.5",  # duplicate name
        "browse:x:1-3:0.9",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_txn_mix(bad, n_items=25)

    def test_parse_rejects_oversized_ops(self):
        with pytest.raises(ValueError, match="exceeds"):
            parse_txn_mix("big:1:1-30:0.5", n_items=25)

    def test_config_validates_mix_eagerly(self):
        with pytest.raises(ValueError):
            popn_config(txn_mix="nope")
        popn_config(txn_mix="a:1:1-2:0.5,b:2:1-3:0.9")  # parses fine

    def test_default_classes_match_params(self):
        params = WorkloadParams(min_ops=2, max_ops=4, read_probability=0.7)
        (cls,) = default_classes(params)
        assert (cls.min_ops, cls.max_ops) == (2, 4)
        assert cls.read_probability == 0.7

    def test_mix_weights_respected(self):
        params = WorkloadParams(n_items=50)
        classes = parse_txn_mix("small:9:1-1:1.0,large:1:5-5:0.0",
                                n_items=50)
        gen = OpenArrivalGenerator(params, classes, random.Random(3))
        for _ in range(2000):
            gen.next_spec()
        share = gen.by_class["small"] / gen.generated
        assert 0.85 < share < 0.95
        assert gen.by_class["small"] + gen.by_class["large"] == 2000


class TestZipfSampler:
    def test_uniform_when_skew_zero(self):
        sampler = ZipfItemSampler(WorkloadParams(n_items=100))
        rng = random.Random(5)
        counts = [0] * 100
        for _ in range(20_000):
            counts[sampler.sample_one(rng)] += 1
        assert max(counts) < 2.0 * min(counts)

    def test_skewed_counts_decrease_with_rank(self):
        sampler = ZipfItemSampler(
            WorkloadParams(n_items=100, access_skew=0.9))
        rng = random.Random(5)
        counts = [0] * 100
        for _ in range(30_000):
            counts[sampler.sample_one(rng)] += 1
        # Weight law is monotone in rank; bucketed counts must be too.
        buckets = [sum(counts[i:i + 20]) for i in range(0, 100, 20)]
        assert buckets == sorted(buckets, reverse=True)
        # Empirical head mass tracks the configured law.
        weights = WorkloadParams(n_items=100,
                                 access_skew=0.9).item_weights()
        expected_head = sum(weights[:10]) / sum(weights)
        assert counts and sum(counts[:10]) / sum(counts) == pytest.approx(
            expected_head, rel=0.1)

    def test_distinct_sample(self):
        sampler = ZipfItemSampler(
            WorkloadParams(n_items=10, access_skew=2.5, max_ops=10))
        rng = random.Random(5)
        for _ in range(200):
            items = sampler.sample(rng, 8)
            assert len(items) == len(set(items)) == 8

    def test_extreme_skew_falls_back_deterministically(self):
        # Near-degenerate law: almost all mass on rank 0; the rejection
        # loop exhausts and the rank-order fill completes the set.
        sampler = ZipfItemSampler(
            WorkloadParams(n_items=5, access_skew=30.0, max_ops=5))
        items = sampler.sample(random.Random(1), 5)
        assert sorted(items) == [0, 1, 2, 3, 4]


class TestSplitPopulation:
    def test_even_split(self):
        assert split_population(100, 4) == [25, 25, 25, 25]

    def test_remainder_to_early_sites(self):
        assert split_population(10, 3) == [4, 3, 3]

    def test_total_preserved(self):
        for population, n in ((1, 1), (7, 3), (1000, 7), (10**6, 50)):
            assert sum(split_population(population, n)) == population


class StubClient:
    """Protocol-client stub: commits after a service time that is a pure
    function of the transaction id (``services`` cycled), and records
    every admitted transaction."""

    def __init__(self, sim, services=(1.0,)):
        self.sim = sim
        self.services = services
        self.admitted = []   # (txn_id, time, spec) in admission order

    def execute(self, txn):
        self.admitted.append((txn.txn_id, self.sim.now, txn.spec))
        start = self.sim.now
        yield self.sim.timeout(self.services[txn.txn_id % len(self.services)])
        txn.commit()
        return TxnOutcome(txn_id=txn.txn_id, client_id=txn.client_id,
                          committed=True, start_time=start,
                          end_time=self.sim.now, n_ops=txn.spec.n_ops,
                          n_writes=txn.spec.n_writes)


class HungClient:
    """Protocol-client stub whose transactions never finish."""

    def __init__(self, sim):
        self.sim = sim

    def execute(self, txn):
        yield self.sim.event()


class ArrivalBudget:
    """An arrival process that fails after ``limit`` draws."""

    def __init__(self, arrivals, limit):
        self.arrivals = arrivals
        self.left = limit

    def next_arrival(self, now):
        self.left -= 1
        assert self.left >= 0, "arrival budget spent: the site never slept"
        return self.arrivals.next_arrival(now)


class ScriptedArrivals:
    """Two scripted arrivals, then gaps growing by a quarter. The second is
    answered as ``A(t) = 1.8948738187308816``, but a ``Timeout`` armed at
    ``t`` lands on ``t + (A(t) - t) = 1.8948738187308818``: the heap's
    timestamp is not ``A(t)``."""

    FIRST, SECOND = 0.8814427419165355, 1.8948738187308816

    def __init__(self, rng, rate):
        pass

    def next_arrival(self, now):
        if now == 0.0:
            return self.FIRST
        return self.SECOND if now == self.FIRST else now * 1.25


class UnitArrivals:
    """An arrival every whole time unit, exactly."""

    def __init__(self, rng, rate):
        pass

    def next_arrival(self, now):
        return now + 1.0


ARRIVAL_KINDS = {
    "scripted": ScriptedArrivals,
    "unit": UnitArrivals,
    "poisson": PoissonArrivals,
    "burst": lambda rng, rate: BurstArrivals(rng, rate, period=20.0),
    "diurnal": lambda rng, rate: DiurnalArrivals(rng, rate, period=50.0),
}


def build_population_driver(sim, n_users=20, rate=0.5, max_inflight=256,
                            target=30, driver_class=PopulationDriver,
                            arrival="poisson", services=(1.0,)):
    control = RunControl(sim, target)
    collector = MetricsCollector(0)
    streams = RandomStreams(9)
    params = WorkloadParams(n_items=20)
    client = StubClient(sim, services)
    # As in the runner: user picks and spec draws share one stream.
    popn_rng = streams.stream("popn")
    driver = driver_class(
        sim, 1, client,
        OpenArrivalGenerator(params, default_classes(params), popn_rng),
        control, collector,
        ARRIVAL_KINDS[arrival](streams.stream("arr"), rate),
        n_users, user_rng=popn_rng, max_inflight=max_inflight)
    driver.start()
    return control, collector, driver, client


class TestPopulationDriver:
    def test_runs_to_target(self):
        sim = Simulator()
        control, collector, driver, client = build_population_driver(sim)
        sim.run(until=control.done_event)
        assert control.finished == 30
        assert collector.metrics.committed == 30
        state = driver.state
        assert state.arrivals >= state.started >= 30
        assert state.peak_active >= 1

    def test_busy_users_are_skipped_not_queued(self):
        sim = Simulator()
        # One user, fast arrivals, 1-unit service: most arrivals land
        # while the single user is busy and must be counted as skips.
        control, _, driver, client = build_population_driver(
            sim, n_users=1, rate=5.0, target=10)
        sim.run(until=control.done_event)
        assert driver.state.busy_skipped > 0
        assert driver.state.peak_active == 1
        assert len(client.admitted) >= 10

    def test_admission_cap_sheds(self):
        sim = Simulator()
        control, _, driver, _ = build_population_driver(
            sim, n_users=500, rate=50.0, max_inflight=4, target=40)
        sim.run(until=control.done_event)
        assert driver.state.peak_active <= 4
        assert driver.state.shed > 0

    def test_a_run_whose_transactions_never_finish_stalls(self):
        # Every transaction hangs, and each site has fewer users than the
        # default cap: once all of them are in flight the site sleeps, so
        # the heap drains and the run reports the stall. (A site that
        # armed busy-skipped arrivals forever would never drain it; the
        # arrival budget turns that hang into a failure.)
        config = popn_config(n_clients=2, population=6)
        assembly = assemble(config, seed=3)
        for driver in assembly.drivers.values():
            assert driver.max_inflight == 256 > driver.state.n_users
            driver.protocol_client = HungClient(assembly.sim)
            driver.arrivals = ArrivalBudget(driver.arrivals, 10_000)
        with pytest.raises(RuntimeError, match="simulation stalled"):
            assembly.run(config)
        assert assembly.control.finished == 0
        assert all(driver.state.inflight == driver.state.n_users == 3
                   for driver in assembly.drivers.values())

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            build_population_driver(sim, n_users=0)
        with pytest.raises(ValueError):
            build_population_driver(sim, max_inflight=0)


def counters(driver):
    state = driver.state
    return (state.arrivals, state.busy_skipped, state.shed, state.started,
            state.peak_active, sorted(state.active.items()))


def run_twin(driver_class, read_times=(), **kwargs):
    """One driver on its own simulator: counters at every read time and
    at the end, the admitted sequence, the collector's metrics and the
    heap entries it cost."""
    sim = Simulator()
    control, collector, driver, client = build_population_driver(
        sim, driver_class=driver_class, **kwargs)
    reads = []
    for when in read_times:
        sim.run(until=when)
        reads.append(counters(driver))
    if not control.done_event.processed:
        sim.run(until=control.done_event)
    metrics = collector.metrics
    return {
        "reads": reads,
        "final": counters(driver),
        "admitted": client.admitted,
        "metrics": (metrics.committed, metrics.aborted,
                    list(metrics.response_times),
                    metrics.first_measured_at, metrics.last_measured_at),
        "finished": control.finished,
    }, sim.processed_events


class TestSkipAheadMatchesEagerOracle:
    """The shipped driver sleeps at its admission cap and replays what it
    slept through; :class:`EagerPopulationDriver` (the driver it replaced,
    one heap entry per arrival) is the oracle."""

    @given(
        n_users=st.integers(min_value=1, max_value=40),
        rate=st.sampled_from([0.05, 0.5, 5.0, 50.0]),
        max_inflight=st.sampled_from([1, 2, 3, 8, 256]),
        arrival=st.sampled_from(["poisson", "burst", "diurnal"]),
        services=st.lists(
            st.floats(min_value=0.01, max_value=30.0, allow_nan=False),
            min_size=1, max_size=5),
        target=st.integers(min_value=1, max_value=40),
        read_times=st.lists(
            st.floats(min_value=0.001, max_value=400.0, allow_nan=False),
            max_size=6, unique=True),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_counters_admissions_and_metrics(
            self, n_users, rate, max_inflight, arrival, services, target,
            read_times):
        kwargs = dict(n_users=n_users, rate=rate, max_inflight=max_inflight,
                      arrival=arrival, services=tuple(services),
                      target=target, read_times=sorted(read_times))
        eager, eager_events = run_twin(EagerPopulationDriver, **kwargs)
        skip, skip_events = run_twin(PopulationDriver, **kwargs)
        assert skip == eager
        assert skip["finished"] >= target
        assert skip_events <= eager_events
        if skip["final"][2]:  # anything shed: those arrivals cost no entry
            assert skip_events < eager_events

    def test_one_user_at_cap_one_is_all_busy_skips(self):
        self.check_one_user_is_all_busy_skips(max_inflight=1)

    def test_one_user_under_a_large_cap_is_all_busy_skips(self):
        # A site whose every user is in flight sleeps whatever its cap:
        # at 256 the one user, not max_inflight, is what fills it.
        self.check_one_user_is_all_busy_skips(max_inflight=256)

    @staticmethod
    def check_one_user_is_all_busy_skips(max_inflight):
        kwargs = dict(n_users=1, rate=20.0, max_inflight=max_inflight,
                      target=12, services=(3.0, 0.5),
                      read_times=(1.0, 7.5, 20.0))
        eager, eager_events = run_twin(EagerPopulationDriver, **kwargs)
        skip, skip_events = run_twin(PopulationDriver, **kwargs)
        assert skip == eager
        arrivals, busy_skipped, shed, started, peak, _ = skip["final"]
        assert shed == 0 and peak == 1
        assert busy_skipped == arrivals - started > 100
        assert skip_events < eager_events / 5

    @pytest.mark.parametrize("max_inflight", [1, 2])
    def test_timestamps_are_the_timeout_formula_not_next_arrival(
            self, max_inflight):
        # Cap 2 admits the second arrival (the armed path); cap 1 sleeps
        # through it (the replayed path, which seeds the wake's timestamp).
        kwargs = dict(n_users=50, max_inflight=max_inflight, target=3,
                      arrival="scripted", services=(1.1,))
        eager, _ = run_twin(EagerPopulationDriver, **kwargs)
        skip, _ = run_twin(PopulationDriver, **kwargs)
        assert skip == eager
        process = ScriptedArrivals(None, None)
        as_armed, as_answered = [0.0], [0.0]
        for _ in range(8):
            fire = as_armed[-1]
            as_armed.append(fire + (process.next_arrival(fire) - fire))
            as_answered.append(process.next_arrival(as_answered[-1]))
        admitted = [when for _, when, _ in skip["admitted"]]
        assert len(admitted) >= 3
        assert set(admitted) <= set(as_armed)
        assert not set(admitted[1:]) & set(as_answered)

    def test_arrival_tied_with_a_completion_comes_after_it(self):
        # The documented tie rule. Arrivals at 1, 2, 3, ... and a service
        # time of exactly 1: every arrival is bit-equal to the completion
        # that frees the site's only slot, and finds it free. (The eager
        # heap happens to order this one the other way and sheds; it
        # could order a tie either way, which is why the rule exists.)
        skip, _ = run_twin(PopulationDriver, n_users=50, max_inflight=1,
                           target=5, arrival="unit", services=(1.0,))
        arrivals, busy_skipped, shed, started, _, _ = skip["final"]
        assert (busy_skipped, shed) == (0, 0)
        assert arrivals == started >= 5

    def test_completion_that_ends_the_run_does_not_rearm(self):
        sim = Simulator()
        control, _, driver, _ = build_population_driver(
            sim, n_users=50, rate=5.0, max_inflight=1, target=1,
            services=(10.0,))
        sim.run(until=control.done_event)
        assert driver.state.shed > 10
        assert sim.pending == 1  # the finished process's own event, only

    def _sleeping_site(self, driver_class=PopulationDriver):
        """A site whose only slot is taken by a 10-unit transaction."""
        sim = Simulator()
        spawned = []
        spawn = sim.spawn
        sim.spawn = lambda gen: spawned.append(gen) or spawn(gen)
        control, _, driver, _ = build_population_driver(
            sim, n_users=50, rate=5.0, max_inflight=1, target=3,
            services=(10.0,), driver_class=driver_class)
        return sim, control, driver, spawned

    def test_finishing_after_done_neither_replays_nor_rearms(self):
        snapshots = {}
        for cls in (EagerPopulationDriver, PopulationDriver):
            sim, control, driver, _ = self._sleeping_site(cls)
            sim.call_later(5.0, control.done_event.succeed, 0)
            sim.run(until=control.done_event)
            at_done = counters(driver)
            assert at_done[2] > 10          # shed while asleep, all counted
            sim.run()                       # the transaction ends at ~10
            assert sim.now > 10.0
            assert sim.pending == 0         # nothing re-armed
            assert counters(driver)[:5] == at_done[:5]
            assert driver.state.active == {}
            snapshots[cls] = at_done
        assert snapshots[PopulationDriver] == snapshots[EagerPopulationDriver]

    def test_closing_an_unfinished_run_touches_nothing(self):
        sim, control, driver, spawned = self._sleeping_site()
        sim.run(until=5.0)
        assert len(spawned) == 1 and driver._slept is not None
        raw = driver._state   # not .state: a read would replay
        before = (sim.pending, driver._slept, raw.arrivals,
                  raw.busy_skipped, raw.shed, raw.started)
        spawned[0].close()    # teardown: GeneratorExit at the yield
        assert raw.active == {}
        assert before == (sim.pending, driver._slept, raw.arrivals,
                          raw.busy_skipped, raw.shed, raw.started)


def without_heap_counts(fingerprint):
    """A fingerprint minus the diagnostics that count heap entries."""
    fingerprint = copy.deepcopy(fingerprint)
    summary = fingerprint.get("trace_summary")
    if summary is not None:
        del summary["processed_events"], summary["peak_heap_depth"]
        summary["probe_series"].pop("heap_pending", None)
    return fingerprint


def jsonl_body(result, config, path):
    write_jsonl(str(path), result.trace, config, result.seed)
    with open(path, encoding="utf-8") as handle:
        rows = handle.read().splitlines()
    return [row for row in rows[1:]           # [0] is the summary header
            if '"name": "heap_pending"' not in row]


class TestFullStackDifferential:
    """run_simulation with the eager oracle patched in vs the shipped
    driver: the same run but for the counts of heap entries."""

    @given(
        protocol=st.sampled_from(["g2pl", "s2pl", "g2pl-ro", "hybrid"]),
        n_clients=st.integers(min_value=2, max_value=6),
        users_per_site=st.sampled_from([1, 3, 40]),
        arrival=st.sampled_from(["poisson", "burst", "diurnal"]),
        arrival_rate=st.sampled_from([2e-4, 2e-3, 2e-2]),
        cap=st.sampled_from([1, 2, 4, 256]),
        extras=st.sampled_from([
            {}, {"streaming": True}, {"faults": "loss=0.03"},
            {"trace": True, "probe_interval": 37.0},
            {"trace": True, "probe_interval": 400.0, "faults": "loss=0.02"},
            {"txn_mix": "browse:6:1-3:0.9,update:3:2-4:0.3"}]),
        seed=st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_fingerprints_and_exports_match(
            self, tmp_path_factory, protocol, n_clients, users_per_site,
            arrival, arrival_rate, cap, extras, seed):
        if "faults" in extras and protocol == "hybrid":
            extras = {}
        config = popn_config(
            protocol=protocol, n_clients=n_clients, n_items=12,
            population=n_clients * users_per_site, arrival=arrival,
            arrival_rate=arrival_rate, max_inflight_per_site=cap,
            total_transactions=60, warmup_transactions=6, **extras)
        skip = run_simulation(config, seed=seed)
        with mock.patch.object(population_mod, "PopulationDriver",
                               EagerPopulationDriver):
            eager = run_simulation(config, seed=seed)
        assert (without_heap_counts(result_fingerprint(skip))
                == without_heap_counts(result_fingerprint(eager)))
        assert (skip.engine_stats["processed_events"]
                <= eager.engine_stats["processed_events"])
        if not config.trace:
            assert result_fingerprint(skip) == result_fingerprint(eager)
        else:
            out = tmp_path_factory.mktemp("jsonl")
            assert (jsonl_body(skip, config, out / "skip.jsonl")
                    == jsonl_body(eager, config, out / "eager.jsonl"))

    def test_saturated_traced_export_differs_only_in_heap_counts(
            self, tmp_path):
        from repro.perf.goldens import golden_config

        config, seed = golden_config("g2pl_population_saturated")
        config = config.replace(trace=True, probe_interval=50.0)
        skip = run_simulation(config, seed=seed)
        with mock.patch.object(population_mod, "PopulationDriver",
                               EagerPopulationDriver):
            eager = run_simulation(config, seed=seed)
        assert skip.server_stats["popn_shed"] > 2000
        assert (jsonl_body(skip, config, tmp_path / "skip.jsonl")
                == jsonl_body(eager, config, tmp_path / "eager.jsonl"))
        left = result_fingerprint(skip)["trace_summary"]
        right = result_fingerprint(eager)["trace_summary"]
        moved = {key for key in left if left[key] != right[key]}
        assert moved == {"processed_events", "peak_heap_depth",
                         "probe_series"}
        assert ({name for name in left["probe_series"]
                 if left["probe_series"][name]
                 != right["probe_series"][name]} == {"heap_pending"})


class TestPopulationConfig:
    def test_population_below_clients_rejected(self):
        with pytest.raises(ValueError, match="below n_clients"):
            popn_config(population=4)

    def test_arrival_rate_validated(self):
        with pytest.raises(ValueError):
            popn_config(arrival_rate=0.0)

    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError):
            popn_config(arrival="sawtooth")

    def test_burst_off_phase_must_stay_nonnegative(self):
        # the burst shape every --arrival burst run gets: a 6x on-phase
        # over the first tenth of each period leaves a quiet, not a
        # negative, off-phase, and the long-run mean is the base rate
        burst = make_arrivals(popn_config(arrival="burst"),
                              random.Random(1), 2.0)
        assert burst.off_rate >= 0.0
        mean = (burst.on_fraction * burst.on_rate
                + (1.0 - burst.on_fraction) * burst.off_rate)
        assert mean == pytest.approx(2.0)

    def test_describe_mentions_population(self):
        assert "population=400" in popn_config().describe()
        assert "population" not in SimulationConfig().describe()

    def test_crash_faults_rejected_with_population(self):
        with pytest.raises(ValueError, match="crash faults"):
            popn_config(faults="crash=2@1000:2000")

    def test_loss_faults_still_allowed(self):
        result = run_simulation(popn_config(
            faults="loss=0.01", total_transactions=60,
            warmup_transactions=6))
        # finished excludes the warmup-discarded transient phase
        assert result.metrics.finished == 60 - 6


class TestPopulationEndToEnd:
    def test_run_produces_population_stats(self):
        result = run_simulation(popn_config())
        stats = result.server_stats
        assert stats["population"] == 400
        assert stats["popn_started"] >= result.metrics.finished
        assert stats["popn_arrivals"] >= stats["popn_started"]
        assert 1 <= stats["popn_peak_inflight"] <= 256
        assert stats["popn_by_class"] == {"default": stats["popn_started"]}

    def test_txn_mix_classes_reported(self):
        result = run_simulation(popn_config(
            txn_mix="browse:6:1-3:0.9,update:3:2-5:0.3"))
        by_class = result.server_stats["popn_by_class"]
        assert set(by_class) == {"browse", "update"}
        assert by_class["browse"] > by_class["update"]

    @pytest.mark.parametrize("arrival", ["poisson", "burst", "diurnal"])
    def test_every_arrival_process_runs(self, arrival):
        result = run_simulation(popn_config(
            arrival=arrival, total_transactions=60, warmup_transactions=6))
        assert result.metrics.finished == 60 - 6

    def test_jobs_parallelism_is_bit_identical(self):
        configs = [popn_config(access_skew=0.5),
                   popn_config(arrival="burst", seed=11)]
        cells = [SimulationCell(config=config, seed=config.seed)
                 for config in configs]
        serial = run_cells(cells, jobs=1)
        pooled = run_cells(cells, jobs=2)
        for left, right in zip(serial, pooled):
            assert result_fingerprint(left) == result_fingerprint(right)

    def test_same_seed_replays_identically(self):
        first = run_simulation(popn_config(access_skew=0.9))
        second = run_simulation(popn_config(access_skew=0.9))
        assert result_fingerprint(first) == result_fingerprint(second)

    def test_traced_population_run_validates(self):
        from repro.obs.schema import validate_trace

        result = run_simulation(popn_config(trace=True))
        assert validate_trace(result.trace) == []
        measured = [r for r in result.trace.txns if r["measured"]]
        assert len(measured) == (result.metrics.committed
                                 + result.metrics.aborted)
