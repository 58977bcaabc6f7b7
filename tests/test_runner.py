"""Integration tests for the simulation runner and the public API."""

import pytest

from repro import (
    SimulationConfig,
    SimulationResult,
    available_protocols,
    compare_protocols,
    improvement_percentage,
    run_replications,
    run_simulation,
    run_worked_example,
)


def smoke_config(**overrides):
    defaults = dict(n_clients=8, n_items=10, network_latency=50.0,
                    read_probability=0.5, total_transactions=120,
                    warmup_transactions=20, seed=11)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestConfig:
    def test_defaults_match_table1(self):
        cfg = SimulationConfig()
        assert cfg.n_clients == 50
        assert cfg.n_items == 25
        assert (cfg.min_ops, cfg.max_ops) == (1, 5)
        assert cfg.network_latency == 500.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(n_clients=0)
        with pytest.raises(ValueError):
            SimulationConfig(read_probability=2.0)
        with pytest.raises(ValueError):
            SimulationConfig(total_transactions=10, warmup_transactions=10)

    # Protocol options are checked when the config is built, not when a
    # sweep worker first builds the server.
    def test_unknown_fl_ordering_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown fl_ordering 'bogus'"):
            SimulationConfig(fl_ordering="bogus")

    def test_zero_forward_list_cap_rejected_at_construction(self):
        with pytest.raises(ValueError, match="max_forward_list_length"):
            SimulationConfig(max_forward_list_length=0)

    def test_replace_revalidates(self):
        cfg = SimulationConfig()
        with pytest.raises(ValueError):
            cfg.replace(network_latency=-1.0)
        assert cfg.replace(seed=9).seed == 9
        assert cfg.seed == 1  # original untouched

    def test_describe(self):
        assert "g2pl" in SimulationConfig().describe()


class TestRunSimulation:
    def test_run_produces_metrics(self):
        result = run_simulation(smoke_config(protocol="s2pl"))
        assert result.metrics.finished == 100  # 120 minus 20 warmup
        assert result.mean_response_time > 0
        assert result.messages_sent > 0
        assert result.duration > 0

    def test_serializability_checked_by_default(self):
        result = run_simulation(smoke_config(protocol="g2pl"))
        assert result.serializability is not None
        assert result.serializability.ok

    def test_all_protocols_run(self):
        for protocol in available_protocols():
            result = run_simulation(smoke_config(protocol=protocol))
            assert result.metrics.finished == 100, protocol
            assert result.serializability.ok, protocol

    def test_deterministic_per_seed(self):
        a = run_simulation(smoke_config(), seed=99)
        b = run_simulation(smoke_config(), seed=99)
        assert a.mean_response_time == b.mean_response_time
        assert a.messages_sent == b.messages_sent

    def test_different_seeds_differ(self):
        a = run_simulation(smoke_config(), seed=1)
        b = run_simulation(smoke_config(), seed=2)
        assert a.mean_response_time != b.mean_response_time

    def test_history_disabled_skips_checking(self):
        result = run_simulation(smoke_config(record_history=False))
        assert result.serializability is None

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            run_simulation(smoke_config(protocol="3pl"))

    def test_summary_renders(self):
        result = run_simulation(smoke_config())
        assert "response=" in result.summary()

    def test_default_result_has_iterable_server_stats(self):
        # Regression: server_stats defaulted to None (a shared mutable
        # default is illegal anyway), so iterating a bare result crashed.
        result = SimulationResult(config=None, seed=0, metrics=None,
                                  duration=0.0, messages_sent=0,
                                  data_units_sent=0.0)
        assert result.server_stats == {}
        assert list(result.server_stats.items()) == []
        assert result.serializability is None
        other = SimulationResult(config=None, seed=1, metrics=None,
                                 duration=0.0, messages_sent=0,
                                 data_units_sent=0.0)
        other.server_stats["aborts_initiated"] = 3
        assert result.server_stats == {}  # no shared default dict


class TestReplications:
    def test_replications_aggregate(self):
        result = run_replications(smoke_config(), replications=3)
        assert len(result.runs) == 3
        assert result.response_time.n == 3
        assert result.mean_response_time > 0
        assert "response=" in result.summary()

    def test_replications_use_distinct_seeds(self):
        result = run_replications(smoke_config(), replications=3)
        seeds = {run.seed for run in result.runs}
        assert len(seeds) == 3

    def test_at_least_one_replication(self):
        with pytest.raises(ValueError):
            run_replications(smoke_config(), replications=0)


class TestCompare:
    def test_compare_protocols_common_seeds(self):
        results = compare_protocols(smoke_config(), ("s2pl", "g2pl"),
                                    replications=2)
        assert set(results) == {"s2pl", "g2pl"}
        s_seeds = [run.seed for run in results["s2pl"].runs]
        g_seeds = [run.seed for run in results["g2pl"].runs]
        assert s_seeds == g_seeds  # common random numbers

    def test_improvement_percentage(self):
        results = compare_protocols(smoke_config(), ("s2pl", "g2pl"),
                                    replications=2)
        value = improvement_percentage(results["s2pl"], results["g2pl"])
        assert -100.0 < value < 100.0


class TestWorkedExample:
    def test_figure1_spans(self):
        result = run_worked_example()
        assert result.s2pl_span == pytest.approx(15.0)
        assert result.g2pl_span == pytest.approx(11.0)
        assert result.s2pl_rounds == 9
        assert result.g2pl_rounds == 7
        assert result.improvement_percentage == pytest.approx(26.7, abs=0.1)

    def test_scales_with_clients(self):
        result = run_worked_example(n_clients=5)
        # m clients: s-2PL m*(2L+P)=25, g-2PL (m+1)L + mP = 17.
        assert result.s2pl_span == pytest.approx(25.0)
        assert result.g2pl_span == pytest.approx(17.0)
        # measured rounds: 3m and 2m+1
        assert (result.s2pl_rounds, result.g2pl_rounds) == (15, 11)

    def test_str(self):
        assert "Figure 1" in str(run_worked_example())
