"""Determinism regression suite for the parallel execution engine.

The headline guarantee: fanning simulation cells out over a process pool
(`jobs>1`) produces results bit-identical to the serial runner for the
same configs and seeds — same per-run response times, abort percentages,
message counts, everything. These tests pin that guarantee for both
protocols, plus the `jobs=1` pool bypass and per-cell error propagation.
"""

import pytest

from repro import SimulationConfig
from repro.core.parallel import (
    CellError,
    SimulationCell,
    replication_seed,
    resolve_jobs,
    run_cells,
)
from repro.core.runner import compare_protocols, run_replications


def tiny_config(**overrides):
    defaults = dict(n_clients=6, n_items=8, network_latency=25.0,
                    read_probability=0.5, total_transactions=80,
                    warmup_transactions=10, seed=17, record_history=False)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def assert_runs_identical(a, b):
    """Bit-identical per-run metrics: the full response-time series, the
    abort accounting, and the message/data counters."""
    assert a.seed == b.seed
    assert a.config == b.config
    assert a.metrics.response_times == b.metrics.response_times
    assert a.metrics.committed == b.metrics.committed
    assert a.metrics.aborted == b.metrics.aborted
    assert a.metrics.abort_reasons == b.metrics.abort_reasons
    assert a.abort_percentage == b.abort_percentage
    assert a.messages_sent == b.messages_sent
    assert a.data_units_sent == b.data_units_sent
    assert a.duration == b.duration
    assert a.server_stats == b.server_stats


class TestDeterminism:
    @pytest.mark.parametrize("protocol", ["s2pl", "g2pl"])
    def test_replications_parallel_matches_serial(self, protocol):
        config = tiny_config(protocol=protocol)
        serial = run_replications(config, replications=3, jobs=1)
        parallel = run_replications(config, replications=3, jobs=2)
        assert len(serial.runs) == len(parallel.runs) == 3
        for a, b in zip(serial.runs, parallel.runs):
            assert_runs_identical(a, b)
        assert serial.response_time.mean == parallel.response_time.mean
        assert (serial.response_time.half_width
                == parallel.response_time.half_width)
        assert (serial.abort_percentage.mean
                == parallel.abort_percentage.mean)

    def test_compare_protocols_parallel_matches_serial(self):
        config = tiny_config()
        serial = compare_protocols(config, ("s2pl", "g2pl"),
                                   replications=2, jobs=1)
        parallel = compare_protocols(config, ("s2pl", "g2pl"),
                                     replications=2, jobs=2)
        assert set(serial) == set(parallel) == {"s2pl", "g2pl"}
        for protocol in serial:
            for a, b in zip(serial[protocol].runs, parallel[protocol].runs):
                assert_runs_identical(a, b)
        # Common random numbers survive the fan-out.
        s_seeds = [run.seed for run in parallel["s2pl"].runs]
        g_seeds = [run.seed for run in parallel["g2pl"].runs]
        assert s_seeds == g_seeds

    def test_parallel_seed_scheme_matches_serial(self):
        result = run_replications(tiny_config(), replications=3,
                                  base_seed=100, jobs=2)
        assert [run.seed for run in result.runs] == [
            replication_seed(100, index) for index in range(3)]
        assert [run.seed for run in result.runs] == [100, 100 + 7919,
                                                     100 + 2 * 7919]


class TestSerialBypass:
    def test_jobs1_never_builds_a_pool(self, monkeypatch):
        import repro.core.parallel as parallel_module

        def forbidden(*args, **kwargs):
            raise AssertionError("jobs=1 must not construct a process pool")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                            forbidden)
        result = run_replications(tiny_config(), replications=2, jobs=1)
        assert len(result.runs) == 2

    def test_single_cell_skips_the_pool_even_with_jobs2(self, monkeypatch):
        import repro.core.parallel as parallel_module

        def forbidden(*args, **kwargs):
            raise AssertionError("one cell needs no pool")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor",
                            forbidden)
        results = run_cells([SimulationCell(tiny_config(), seed=5)], jobs=2)
        assert len(results) == 1 and results[0].seed == 5

    def test_empty_cell_list(self):
        assert run_cells([], jobs=4) == []

    def test_ordered_reassembly(self):
        cells = [SimulationCell(tiny_config(), seed=seed)
                 for seed in (31, 3, 77, 12)]
        results = run_cells(cells, jobs=1)
        assert [r.seed for r in results] == [31, 3, 77, 12]


class TestErrorPropagation:
    # A cell that constructs and fails only once a worker runs it: the
    # workload refuses five operations over a three-item pool when it is
    # drawn. (An unknown protocol, option or unsupported combination
    # never gets this far — SimulationConfig refuses it before any pool
    # starts.)
    def test_serial_failure_carries_cell_context(self):
        cells = [SimulationCell(tiny_config(), seed=1),
                 SimulationCell(tiny_config(n_items=3), seed=42)]
        with pytest.raises(CellError, match="3-item pool") as excinfo:
            run_cells(cells, jobs=1)
        assert "seed=42" in str(excinfo.value)
        assert excinfo.value.cell is cells[1]

    def test_parallel_failure_carries_cell_context(self):
        cells = [SimulationCell(tiny_config(), seed=1),
                 SimulationCell(tiny_config(n_items=3), seed=42)]
        with pytest.raises(CellError, match="3-item pool") as excinfo:
            run_cells(cells, jobs=2)
        assert "seed=42" in str(excinfo.value)
        assert excinfo.value.cell == cells[1]


class TestProgressAndJobs:
    def test_progress_callback_serial(self):
        seen = []
        run_cells([SimulationCell(tiny_config(), seed=s) for s in (1, 2, 3)],
                  jobs=1, progress=lambda done, total: seen.append((done,
                                                                    total)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_progress_callback_parallel(self):
        seen = []
        run_cells([SimulationCell(tiny_config(), seed=s) for s in (1, 2, 3)],
                  jobs=2, progress=lambda done, total: seen.append((done,
                                                                    total)))
        assert seen[-1] == (3, 3)
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)

    def test_resolve_jobs(self):
        import os

        cpus = os.cpu_count() or 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == cpus
        assert resolve_jobs(None) == cpus
        assert resolve_jobs("auto") == cpus
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestRunReplicationsAPI:
    def test_jobs_parameter_validates_replications(self):
        with pytest.raises(ValueError):
            run_replications(tiny_config(), replications=0, jobs=2)
