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
    # None: the paper's closed-loop terminals, one transaction per site at
    # a time; otherwise that many open-arrival users per site, arriving
    # fast enough that a site runs several transactions at once
    "users_per_site": st.sampled_from([None, 2, 8]),
    "arrival_rate": st.sampled_from([0.01, 0.05]),
    "access_skew": st.sampled_from([0.0, 1.0]),
    "seed": st.integers(min_value=1, max_value=10_000),
})


# c-2PL at a population site with a copy pinned by two local
# transactions: stalled (busy ack named only the first pinner) until the
# recall acked each one.
C2PL_PINNED_TWICE = dict(protocol="c2pl", n_items=2, read_probability=0.7,
                         max_ops=2, access_skew=1.0)


@given(CONFIGS)
@example(dict(C2PL_PINNED_TWICE, n_clients=3, network_latency=1.0,
              users_per_site=8, arrival_rate=0.01, seed=3))
@example(dict(C2PL_PINNED_TWICE, n_clients=2, network_latency=25.0,
              users_per_site=2, arrival_rate=0.05, seed=10))
@example(dict(C2PL_PINNED_TWICE, n_clients=3, network_latency=25.0,
              users_per_site=2, arrival_rate=0.01, seed=2))
# c-2PL left a population writer's own client off its recall, so a
# sibling transaction kept reading the copy the writer replaced
@example(dict(protocol="c2pl", n_clients=2, n_items=4, read_probability=0.7,
              network_latency=25.0, max_ops=2, users_per_site=8,
              arrival_rate=0.02, access_skew=0.0, seed=1))
@settings(max_examples=25, deadline=None)
def test_every_configuration_is_serializable(params):
    params = dict(params)
    params["max_ops"] = min(params["max_ops"], params["n_items"])
    users = params.pop("users_per_site")
    if users is None:
        del params["arrival_rate"]
    else:
        # Admission capped at the site's users changes no admission, but
        # a site whose users all stall then sleeps: a stall drains the
        # heap and fails the run instead of arriving forever.
        params.update(population=users * params["n_clients"],
                      max_inflight_per_site=users)
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
