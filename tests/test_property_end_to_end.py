"""End-to-end property test: serializability holds for arbitrary small
workload configurations under every protocol."""

from hypothesis import example, given, settings, strategies as st

from repro import SimulationConfig, run_simulation

CONFIGS = st.fixed_dictionaries({
    "protocol": st.sampled_from(
        ["s2pl", "g2pl", "g2pl-basic", "g2pl-ro", "c2pl"]),
    "n_clients": st.integers(min_value=2, max_value=8),
    "n_items": st.integers(min_value=2, max_value=8),
    "read_probability": st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    "network_latency": st.sampled_from([1.0, 25.0, 200.0]),
    "max_ops": st.integers(min_value=1, max_value=2),
    "mpl": st.sampled_from([1, 2]),
    "access_skew": st.sampled_from([0.0, 1.0]),
    "seed": st.integers(min_value=1, max_value=10_000),
})


# c-2PL at MPL 2 with a copy pinned by two local transactions: stalled
# (busy ack named only the first pinner) until the recall acked each one.
C2PL_MPL2_STALL = dict(protocol="c2pl", n_items=2, read_probability=0.7,
                       max_ops=2, mpl=2, access_skew=1.0)


@given(CONFIGS)
@example(dict(C2PL_MPL2_STALL, n_clients=3, network_latency=1.0, seed=101))
@example(dict(C2PL_MPL2_STALL, n_clients=5, network_latency=25.0, seed=153))
@example(dict(C2PL_MPL2_STALL, n_clients=8, network_latency=1.0, seed=18))
@settings(max_examples=25, deadline=None)
def test_every_configuration_is_serializable(params):
    params = dict(params)
    params["max_ops"] = min(params["max_ops"], params["n_items"])
    config = SimulationConfig(total_transactions=60, warmup_transactions=0,
                              **params)
    result = run_simulation(config)
    assert result.serializability.ok
    assert result.metrics.finished == 60
    # Committed work is visible: every installed version at the server was
    # produced by some committed transaction (the checker verified the
    # converse); response times are positive.
    if result.metrics.committed:
        assert result.mean_response_time > 0
