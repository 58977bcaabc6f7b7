"""Randomized correctness sweeps: every protocol must produce serializable,
anomaly-free executions under contended workloads, across seeds."""

import pytest

from repro import SimulationConfig, run_simulation
from repro.protocols.registry import available_protocols


def contended_config(protocol, seed, **overrides):
    defaults = dict(
        protocol=protocol, n_clients=10, n_items=6, network_latency=20.0,
        read_probability=0.5, min_ops=1, max_ops=3,
        total_transactions=150, warmup_transactions=0, seed=seed)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.mark.parametrize("protocol", available_protocols())
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_serializable_under_contention(protocol, seed):
    result = run_simulation(contended_config(protocol, seed))
    assert result.serializability.ok
    assert result.metrics.finished == 150


@pytest.mark.parametrize("protocol", ["s2pl", "g2pl", "g2pl-basic"])
def test_serializable_pure_writes(protocol):
    result = run_simulation(contended_config(protocol, 7,
                                              read_probability=0.0))
    assert result.serializability.ok


@pytest.mark.parametrize("protocol", ["s2pl", "g2pl", "g2pl-ro", "c2pl"])
def test_serializable_read_heavy(protocol):
    result = run_simulation(contended_config(protocol, 7,
                                              read_probability=0.9))
    assert result.serializability.ok


@pytest.mark.parametrize("protocol", ["g2pl", "g2pl-basic", "g2pl-ro"])
def test_g2pl_variants_precedence_invariants(protocol):
    # assert_invariants runs inside run_simulation; this exercises the
    # hot-contention path where chains and windows interleave heavily.
    result = run_simulation(contended_config(protocol, 5, n_clients=16,
                                              n_items=4))
    assert result.serializability.ok


def test_g2pl_with_fl_cap_serializable():
    for cap in (1, 2, 4):
        result = run_simulation(
            contended_config("g2pl", 3, max_forward_list_length=cap))
        assert result.serializability.ok, f"cap={cap}"


@pytest.mark.parametrize("ordering", ["fifo", "reads_first", "writes_first"])
def test_g2pl_ordering_disciplines_serializable(ordering):
    result = run_simulation(
        contended_config("g2pl", 3, fl_ordering=ordering))
    assert result.serializability.ok


def test_finite_bandwidth_serializable():
    for protocol in ("s2pl", "g2pl"):
        result = run_simulation(
            contended_config(protocol, 3, bandwidth=0.5))
        assert result.serializability.ok


def test_single_client_never_aborts():
    for protocol in available_protocols():
        result = run_simulation(contended_config(protocol, 1, n_clients=1))
        assert result.metrics.aborted == 0, protocol


def test_progress_under_extreme_contention():
    """Two items, sixteen clients, all writes: the run must not stall."""
    for protocol in ("s2pl", "g2pl"):
        result = run_simulation(contended_config(
            protocol, 9, n_clients=16, n_items=2, max_ops=2,
            read_probability=0.0, total_transactions=100))
        assert result.metrics.finished == 100
        assert result.serializability.ok


def test_wal_drained_after_runs():
    result = run_simulation(contended_config("g2pl", 4))
    # Not directly observable from the result; re-run with a probe instead:
    # the invariant "forced before install" is enforced inside the WAL API,
    # so surviving the run without ValueError is the assertion.
    assert result.metrics.finished == 150
