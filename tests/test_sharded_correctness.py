"""The sharded-correctness battery: random shard maps, geo-topologies,
workload mixes, and fault specs — the merged cross-shard history must
stay serializable and strict, 2PC must stay atomic (no transaction
commits at one shard and aborts at another), and prepared locks must
never leak after a coordinator crash.

``run_simulation(record_history=True)`` *raises* on any serializability,
strictness, or 2PC-atomicity violation, so every property here doubles
as an end-to-end crash test of the validators.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.network.topology import RegionTopology
from repro.protocols.registry import protocols_with
from repro.protocols.sharding import ShardMap, shard_site_id

# ---------------------------------------------------------------------------
# Random shard maps and region matrices (pure, fast)
# ---------------------------------------------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_shard_maps_route_consistently(data):
    n_items = data.draw(st.integers(min_value=2, max_value=12))
    n_shards = data.draw(st.integers(min_value=1, max_value=n_items))
    assignments = {item: data.draw(st.integers(0, n_shards - 1),
                                   label=f"shard of item {item}")
                   for item in range(n_items)}
    shard_map = ShardMap(n_shards, n_items, assignments)
    for item in range(n_items):
        assert shard_map._shard_of[item] == assignments[item]
        assert shard_map.server_of(item) == shard_site_id(assignments[item])
        assert item in shard_map.items_of(assignments[item])
    # items_of partitions the item space exactly
    routed = sorted(item for shard in range(n_shards)
                    for item in shard_map.items_of(shard))
    assert routed == list(range(n_items))
    assert len(shard_map.server_ids) == n_shards
    assert len(set(shard_map.server_ids)) == n_shards


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_region_matrices_have_two_tiers(data):
    n_shards = data.draw(st.integers(min_value=1, max_value=5))
    n_clients = data.draw(st.integers(min_value=1, max_value=8))
    n_regions = data.draw(st.integers(min_value=1, max_value=4))
    intra = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    inter = data.draw(st.sampled_from([50.0, 250.0, 750.0]))
    shard_map = ShardMap(n_shards, n_shards)  # one item per shard is fine
    region_of = shard_map.region_assignments(n_clients, n_regions)
    topo = RegionTopology(region_of, intra_latency=intra,
                          inter_latency=inter)
    sites = list(region_of)
    for src in sites:
        assert topo.latency(src, src) == 0.0
        for dst in sites:
            lat = topo.latency(src, dst)
            assert topo.latency(dst, src) == lat  # symmetric
            if src != dst:
                assert lat in (intra, inter)
                same = region_of[src] == region_of[dst]
                assert lat == (intra if same else inter)
    # when the region count divides the shard count, every client is
    # co-located with its home shard ((c-1) % k and (c-1) % r agree
    # modulo r); with a non-dividing count some homes are remote
    if n_shards % n_regions == 0:
        for client_id in range(1, n_clients + 1):
            home = (client_id - 1) % n_shards
            assert topo.latency(client_id,
                                shard_site_id(home)) in (0.0, intra)


# ---------------------------------------------------------------------------
# Random sharded workloads: serializable, strict, atomic
# ---------------------------------------------------------------------------

SHARDED_CONFIGS = st.fixed_dictionaries({
    "protocol": st.sampled_from(protocols_with("shardable")),
    "n_clients": st.integers(min_value=2, max_value=6),
    "n_items": st.integers(min_value=4, max_value=10),
    "n_shards": st.integers(min_value=2, max_value=4),
    "n_regions": st.integers(min_value=1, max_value=3),
    "commit_protocol": st.sampled_from(["2pc", "2pc-opt"]),
    "cross_shard_probability": st.sampled_from([0.0, 0.3, 1.0]),
    "read_probability": st.sampled_from([0.0, 0.5, 1.0]),
    "network_latency": st.sampled_from([2.0, 25.0, 200.0]),
    "seed": st.integers(min_value=1, max_value=10_000),
})


@given(SHARDED_CONFIGS)
@settings(max_examples=15, deadline=None)
def test_random_sharded_configurations_stay_correct(params):
    params = dict(params)
    params["n_shards"] = min(params["n_shards"], params["n_items"])
    config = SimulationConfig(total_transactions=40, warmup_transactions=0,
                              intra_region_latency=1.0,
                              max_ops=min(5, params["n_items"]),
                              record_history=True, **params)
    result = run_simulation(config)
    assert result.serializability.ok
    assert result.metrics.finished == 40
    assert result.server_stats["n_shards"] == params["n_shards"]
    # atomicity of 2PC outcomes was checked inside run_simulation; the
    # reported counts are the union over shards, so they never double
    # count a transaction
    stats = result.server_stats
    assert stats["twopc_commits"] <= result.metrics.committed


# ---------------------------------------------------------------------------
# Directed cells (``pytest -m shard``): both single-grant and forward-list
# protocols over 4 shards x 2 regions under every commit protocol, then
# hybrid on 3 shards
# ---------------------------------------------------------------------------

SHARD_FAULTS = "loss=0.02,jitter=5,crash=2@4000:9000,crash=5@12000"


@pytest.mark.shard
@pytest.mark.parametrize("commit,faults", [
    ("2pc", None), ("2pc-opt", None), ("2pc", SHARD_FAULTS)],
    ids=["2pc", "2pc-opt", "2pc-faulted"])
@pytest.mark.parametrize("protocol", ["s2pl", "g2pl"])
def test_four_shards_commit_under_every_commit_protocol(protocol, commit,
                                                        faults):
    config = SimulationConfig(
        protocol=protocol, n_clients=6, n_items=12, n_shards=4, n_regions=2,
        intra_region_latency=1.0, network_latency=100.0,
        cross_shard_probability=0.5, commit_protocol=commit, faults=faults,
        total_transactions=100, warmup_transactions=10, record_history=True)
    # run_simulation raises on any serializability, strictness, or
    # 2PC-atomicity violation
    result = run_simulation(config, seed=5)
    assert result.metrics.committed > 0
    assert result.server_stats["n_shards"] == 4


# On the sharded chassis the hybrid controller does more than construct:
# it engages (the validators above run here too).
@pytest.mark.shard
@pytest.mark.parametrize("protocol,faults,engaged", [
    ("hybrid", None, ("mode_switches", "windows_single")),
    ("hybrid", "loss=0.05,dup=0.02", ("mode_switches", "twopc_commits")),
])
def test_adaptive_controllers_engage_when_sharded(protocol, faults, engaged):
    config = SimulationConfig(
        protocol=protocol, n_clients=6, n_items=12, n_shards=3, n_regions=3,
        cross_shard_probability=0.5, network_latency=100.0,
        intra_region_latency=1.0, faults=faults, total_transactions=150,
        warmup_transactions=10, record_history=True)
    result = run_simulation(config, seed=3)
    assert result.serializability.ok
    assert result.server_stats["n_shards"] == 3
    for counter in engaged:
        assert result.server_stats[counter] > 0, counter


# ---------------------------------------------------------------------------
# Random fault specs: loss, jitter, crashes
# ---------------------------------------------------------------------------

FAULTED_CONFIGS = st.fixed_dictionaries({
    "protocol": st.sampled_from(["s2pl", "g2pl", "hybrid"]),
    "n_shards": st.integers(min_value=2, max_value=4),
    "loss": st.sampled_from([0.0, 0.02, 0.05]),
    "jitter": st.sampled_from([0.0, 5.0]),
    "crash": st.sampled_from([None, (2, 1500.0, 5000.0), (3, 2500.0, None)]),
    "seed": st.integers(min_value=1, max_value=10_000),
})


@given(FAULTED_CONFIGS)
@settings(max_examples=10, deadline=None)
def test_random_fault_specs_keep_sharded_runs_correct(params):
    clauses = [f"loss={params['loss']}", f"jitter={params['jitter']}"]
    if (params["crash"] is not None
            and params["protocol"] in protocols_with("crash_recovery")):
        client, at, restart = params["crash"]
        clause = f"crash={client}@{at:g}"
        if restart is not None:
            clause += f":{restart:g}"
        clauses.append(clause)
    config = SimulationConfig(
        protocol=params["protocol"], n_clients=4, n_items=8,
        n_shards=params["n_shards"], n_regions=2,
        cross_shard_probability=0.5, read_probability=0.5,
        network_latency=25.0, faults=",".join(clauses),
        total_transactions=50, warmup_transactions=0,
        record_history=True, seed=params["seed"])
    result = run_simulation(config)
    assert result.serializability.ok
    assert result.metrics.committed > 0


# ---------------------------------------------------------------------------
# Prepared locks never leak after a coordinator crash
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["s2pl", "g2pl"])
@pytest.mark.parametrize("seed", [1, 5, 23])
def test_prepared_state_is_settled_after_permanent_coordinator_crash(
        monkeypatch, protocol, seed):
    """Crash a client for good early in the run; by the end, every shard's
    prepared set must be free of that coordinator's transactions — the
    sweep hands them to cooperative termination instead of leaking the
    locks forever."""
    import repro.core.runner as runner_mod

    captured = {}
    real = runner_mod.make_protocol

    def capture(*args, **kwargs):
        servers, clients = real(*args, **kwargs)
        captured["servers"] = servers
        return servers, clients

    monkeypatch.setattr(runner_mod, "make_protocol", capture)
    config = SimulationConfig(
        protocol=protocol, n_clients=5, n_items=10, n_shards=4,
        n_regions=2, cross_shard_probability=0.7, read_probability=0.3,
        network_latency=25.0, faults="loss=0.01,crash=2@1500",
        total_transactions=80, warmup_transactions=0,
        record_history=True, seed=seed)
    result = run_simulation(config)
    assert result.metrics.committed > 0
    servers = list(captured["servers"].values())
    for server in servers:
        for txn_id, staged in server._prepared.items():
            # the only client crashed for good is 2; its prepared
            # transactions must have been settled by termination
            assert staged.client_id != 2, (
                f"shard {server.site_id} leaked prepared txn {txn_id} "
                f"of permanently crashed client 2")
    # and the permanent record stays pairwise consistent
    for i, a in enumerate(servers):
        for b in servers[i + 1:]:
            assert not (a.twopc_commits & b.twopc_aborts)
            assert not (a.twopc_aborts & b.twopc_commits)
