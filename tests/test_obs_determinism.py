"""Determinism guarantees of the tracing layer.

Two properties, both load-bearing:

* enabling tracing (and probes) leaves every simulation result — response
  times, server counters, durations, message counts — bit-identical to an
  untraced run of the same seed;
* merged trace summaries are identical whether the replications ran
  serially or fanned out over a process pool.
"""

import dataclasses

from repro.core.config import SimulationConfig
from repro.core.runner import run_replications, run_simulation


def base_config(**overrides):
    base = dict(protocol="g2pl", n_clients=6, n_items=10,
                total_transactions=80, warmup_transactions=8,
                record_history=False)
    base.update(overrides)
    return SimulationConfig(**base)


def assert_results_identical(a, b):
    assert a.metrics.response_times == b.metrics.response_times
    assert a.metrics.committed == b.metrics.committed
    assert a.metrics.aborted == b.metrics.aborted
    assert a.metrics.abort_reasons == b.metrics.abort_reasons
    assert a.metrics.first_measured_at == b.metrics.first_measured_at
    assert a.metrics.last_measured_at == b.metrics.last_measured_at
    assert a.duration == b.duration
    assert a.messages_sent == b.messages_sent
    assert a.data_units_sent == b.data_units_sent
    assert a.server_stats == b.server_stats


class TestTracingIsInvisible:
    def test_tracing_leaves_results_bit_identical(self):
        plain = run_simulation(base_config())
        traced = run_simulation(base_config(trace=True))
        assert_results_identical(plain, traced)

    def test_probes_leave_results_bit_identical(self):
        plain = run_simulation(base_config())
        probed = run_simulation(base_config(trace=True,
                                            probe_interval=50.0))
        assert_results_identical(plain, probed)

    def test_faulted_tracing_bit_identical(self):
        faults = "loss=0.05,dup=0.01,jitter=25,crash=2@4000:8000"
        plain = run_simulation(base_config(faults=faults))
        traced = run_simulation(base_config(faults=faults, trace=True,
                                            probe_interval=100.0))
        assert_results_identical(plain, traced)

    def test_traced_runs_reproducible(self):
        a = run_simulation(base_config(trace=True, probe_interval=100.0))
        b = run_simulation(base_config(trace=True, probe_interval=100.0))
        assert list(a.trace.events) == list(b.trace.events)
        assert list(a.trace.txns) == list(b.trace.txns)
        assert list(a.trace.probes) == list(b.trace.probes)
        assert (dataclasses.asdict(a.trace.summary)
                == dataclasses.asdict(b.trace.summary))


class TestParallelTraceMerge:
    def test_jobs_parallel_merge_identical_to_serial(self):
        config = base_config(trace=True, probe_interval=100.0)
        serial = run_replications(config, replications=2, jobs=1)
        parallel = run_replications(config, replications=2, jobs=2)
        assert serial.trace_summary is not None
        assert (dataclasses.asdict(serial.trace_summary)
                == dataclasses.asdict(parallel.trace_summary))
        assert serial.trace_summary.runs == 2

    def test_untraced_replications_have_no_summary(self):
        result = run_replications(base_config(), replications=2)
        assert result.trace_summary is None
