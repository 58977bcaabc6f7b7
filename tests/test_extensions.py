"""Tests for the extensions: access skew (Zipf) and a site running
several transactions at once."""

import pytest

from repro import SimulationConfig, run_simulation
from repro.sim import RandomStreams
from repro.workload.generator import WorkloadGenerator, WorkloadParams


class TestAccessSkew:
    def test_zero_skew_is_uniform(self):
        params = WorkloadParams()
        assert params.item_weights() == [1.0] * 25

    def test_negative_skew_rejected(self):
        with pytest.raises(ValueError):
            WorkloadParams(access_skew=-0.5)

    def test_weights_decrease_with_rank(self):
        weights = WorkloadParams(access_skew=1.0).item_weights()
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert weights[0] == 1.0
        assert weights[24] == pytest.approx(1.0 / 25.0)

    def test_skewed_sampling_prefers_low_ranks(self):
        gen = WorkloadGenerator(WorkloadParams(access_skew=1.5),
                                RandomStreams(3))
        counts = [0] * 25
        for _ in range(400):
            for item in gen.next_spec(1).items:
                counts[item] += 1
        # Rank-0 item much hotter than the coldest quartile combined.
        assert counts[0] > sum(counts[19:])

    def test_skewed_items_still_distinct(self):
        gen = WorkloadGenerator(
            WorkloadParams(access_skew=2.0, min_ops=5, max_ops=5),
            RandomStreams(3))
        for _ in range(100):
            spec = gen.next_spec(1)
            assert len(set(spec.items)) == 5

    @pytest.mark.parametrize("protocol", ["s2pl", "g2pl"])
    def test_skewed_runs_serializable(self, protocol):
        result = run_simulation(SimulationConfig(
            protocol=protocol, n_clients=8, n_items=10, access_skew=1.0,
            network_latency=20.0, total_transactions=120,
            warmup_transactions=0, seed=4))
        assert result.serializability.ok

    def test_skew_lengthens_forward_lists(self):
        """Hotter data -> longer forward lists (the paper's §3.4 remark)."""
        lengths = {}
        for skew in (0.0, 2.0):
            result = run_simulation(SimulationConfig(
                protocol="g2pl", n_clients=12, n_items=12, max_ops=2,
                access_skew=skew, network_latency=100.0,
                total_transactions=200, warmup_transactions=0, seed=4,
                record_history=False))
            lengths[skew] = result.server_stats["mean_fl_length"]
        assert lengths[2.0] > lengths[0.0]



class TestMultiprogramming:
    """A site's multiprogramming level, reached through a population:
    ``k`` users per site with admission capped at ``k`` run at most ``k``
    transactions there at once (the closed loop's level is 1)."""

    @staticmethod
    def _at_level(level, n_clients, **keywords):
        return SimulationConfig(
            n_clients=n_clients, population=level * n_clients,
            max_inflight_per_site=level, warmup_transactions=0, seed=4,
            **keywords)

    @pytest.mark.parametrize("protocol", ["s2pl", "g2pl", "c2pl"])
    def test_mpl2_serializable(self, protocol):
        result = run_simulation(self._at_level(
            2, 4, protocol=protocol, n_items=8, arrival_rate=0.05,
            network_latency=20.0, total_transactions=120))
        assert result.serializability.ok
        assert result.metrics.finished == 120
        assert result.server_stats["popn_peak_inflight"] == 2

    def test_mpl_raises_throughput_at_low_contention(self):
        """With plenty of items, more transactions in flight per site
        finish the run in less simulated time."""
        durations = {}
        for level in (1, 3):
            result = run_simulation(self._at_level(
                level, 3, protocol="s2pl", n_items=20, max_ops=1,
                read_probability=1.0, arrival_rate=0.1,
                network_latency=50.0, total_transactions=150,
                record_history=False))
            durations[level] = result.duration
        assert durations[3] < durations[1]
