"""Sharded deployment: shard-map / geo-topology units, cross-shard 2PC
end-to-end runs, cooperative termination, and regression tests for the
latent single-server assumptions the sharding work flushed out."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.network.topology import RegionTopology
from repro.network.transport import Network
from repro.obs.probes import default_sources
from repro.obs.rounds import expected_txn_rounds
from repro.protocols.s2pl import S2PLServer
from repro.protocols.sharded import _PreparedTxn
from repro.protocols.sharding import (
    ShardMap,
    SharedPrecedence,
    partition_items,
    shard_site_id,
)
from repro.sim.engine import Simulator
from repro.storage.store import VersionedStore
from repro.validate.history import HistoryRecorder


# ---------------------------------------------------------------------------
# Shard map and placement units
# ---------------------------------------------------------------------------

def test_partition_items_covers_all_items_near_equally():
    parts = partition_items(10, 3)
    assert len(parts) == 3
    assert sorted(item for part in parts for item in part) == list(range(10))
    sizes = [len(part) for part in parts]
    assert max(sizes) - min(sizes) <= 1
    assert sizes == [4, 3, 3]  # the remainder lands on the first shards


def test_partition_items_rejects_bad_shapes():
    with pytest.raises(ValueError):
        partition_items(10, 0)
    with pytest.raises(ValueError):
        partition_items(3, 4)


def test_shard_site_ids_never_collide_with_clients():
    assert shard_site_id(0) == 0
    assert shard_site_id(1) == -1
    assert shard_site_id(7) == -7
    # client site ids are 1..n, so the spaces are disjoint
    assert not set(shard_site_id(s) for s in range(8)) & set(range(1, 100))


def test_shard_map_routes_every_item_to_its_partition():
    shard_map = ShardMap(3, 10)
    parts = partition_items(10, 3)
    for shard, items in enumerate(parts):
        for item_id in items:
            assert shard_map._shard_of[item_id] == shard
            assert shard_map.server_of(item_id) == shard_site_id(shard)
        assert shard_map.items_of(shard) == items
    assert shard_map.server_ids == (0, -1, -2)


def test_shard_map_explicit_assignments():
    assignments = {0: 1, 1: 0, 2: 1, 3: 0}
    shard_map = ShardMap(2, 4, assignments)
    assert shard_map._shard_of[0] == 1
    assert shard_map.items_of(0) == (1, 3)
    assert shard_map.items_of(1) == (0, 2)
    with pytest.raises(ValueError):
        ShardMap(2, 4, {0: 0, 1: 1})           # misses items 2, 3
    with pytest.raises(ValueError):
        ShardMap(2, 4, {0: 0, 1: 1, 2: 0, 3: 5})  # unknown shard


def test_region_assignments_colocate_clients_with_home_shards():
    shard_map = ShardMap(4, 8)
    region_of = shard_map.region_assignments(n_clients=6, n_regions=2)
    for shard in range(4):
        assert region_of[shard_site_id(shard)] == shard % 2
    for client_id in range(1, 7):
        # The workload generator homes client c on shard (c-1) % k; the
        # placement puts both in the same region.
        home = (client_id - 1) % 4
        assert region_of[client_id] == region_of[shard_site_id(home)]


def test_region_topology_two_latency_tiers():
    topo = RegionTopology({0: 0, -1: 1, 1: 0, 2: 1},
                          intra_latency=1.0, inter_latency=250.0)
    assert topo.latency(1, 0) == 1.0      # client 1 with shard 0
    assert topo.latency(1, -1) == 250.0   # client 1 to the remote shard
    assert topo.latency(2, -1) == 1.0
    assert topo.latency(0, 0) == 0.0
    assert topo.latency(99, 0) == 250.0   # unplaced site: always inter


def test_shared_precedence_refcounts_node_removal():
    graph = SharedPrecedence()
    graph.acquire(1)
    graph.acquire(1)   # second shard registers the same transaction
    assert graph._refs.get(1, 0) == 2
    graph.remove_node(1)
    assert graph._refs.get(1, 0) == 1
    assert 1 in graph._out
    graph.remove_node(1)
    assert graph._refs.get(1, 0) == 0
    assert 1 not in graph._out


# ---------------------------------------------------------------------------
# Closed-form round arithmetic
# ---------------------------------------------------------------------------

def test_expected_txn_rounds_closed_forms():
    # s-2PL: 2m+1 single home, 2m+3 classic cross-shard, 2m+1 piggybacked
    assert expected_txn_rounds("s2pl", 4) == 9
    assert expected_txn_rounds("s2pl", 4, n_homes=3) == 11
    assert expected_txn_rounds("s2pl", 4, n_homes=3,
                               commit_protocol="2pc-opt") == 9
    # g-2PL uncontended: request + ship + return per op, commit free
    assert expected_txn_rounds("g2pl", 4) == 12
    assert expected_txn_rounds("g2pl", 4, n_homes=3) == 12
    with pytest.raises(ValueError):
        expected_txn_rounds("s2pl", 0)
    with pytest.raises(ValueError):
        expected_txn_rounds("s2pl", 2, n_homes=0)
    # 2V-2PL's certify round trip; c-2PL without a cache hit is s-2PL
    assert expected_txn_rounds("2v2pl", 4) == 10
    assert expected_txn_rounds("c2pl", 4) == 9
    # no silent s-2PL answer: hybrid runs either family, and a name
    # outside the table has no count
    with pytest.raises(ValueError, match="hybrid"):
        expected_txn_rounds("hybrid", 4)
    with pytest.raises(ValueError, match="'s3pl'"):
        expected_txn_rounds("s3pl", 4)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_rejects_more_shards_than_items():
    with pytest.raises(ValueError):
        SimulationConfig(n_shards=10, n_items=5)


def test_config_rejects_unknown_commit_protocol():
    with pytest.raises(ValueError):
        SimulationConfig(commit_protocol="3pc")


def test_opt_commit_with_crash_faults_is_rejected():
    # 2pc-opt decisions carry the updates, so a participant could learn
    # an outcome through termination but never the data: forbidden.
    with pytest.raises(ValueError, match="2pc-opt"):
        SimulationConfig(
            protocol="s2pl", n_clients=4, n_items=8, n_shards=2,
            commit_protocol="2pc-opt", faults="crash=2@100:200",
            total_transactions=20, warmup_transactions=0)


def test_unsharded_protocols_cannot_be_sharded():
    # a row of the capability table, rejected before any site is built
    for protocol in ("c2pl", "2v2pl"):
        with pytest.raises(ValueError, match="single-server"):
            SimulationConfig(protocol=protocol, n_items=4, n_shards=2)


# ---------------------------------------------------------------------------
# End-to-end: cross-shard transactions commit atomically and serializably
# ---------------------------------------------------------------------------

def _sharded_config(protocol, **overrides):
    defaults = dict(
        protocol=protocol, n_clients=6, n_items=12, n_shards=4,
        n_regions=2, intra_region_latency=1.0, network_latency=25.0,
        cross_shard_probability=0.5, read_probability=0.5,
        total_transactions=60, warmup_transactions=0,
        record_history=True, seed=5)
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.mark.parametrize("protocol", ["s2pl", "g2pl", "g2pl-basic",
                                      "g2pl-ro", "hybrid"])
def test_sharded_run_commits_and_validates(protocol):
    # record_history=True: run_simulation itself raises on any
    # serializability / strictness / 2PC-atomicity violation.
    result = run_simulation(_sharded_config(protocol))
    assert result.metrics.committed > 0
    assert result.server_stats["n_shards"] == 4
    # The summed multi-server stats are present (regression: these used
    # to read attributes off a single `server` object).
    assert result.server_stats["n_ops_granted"] > 0
    assert result.server_stats["aborts_initiated"] >= 0


def test_sharded_s2pl_uses_2pc_for_cross_shard_txns():
    result = run_simulation(_sharded_config("s2pl"))
    assert result.server_stats["twopc_commits"] > 0
    assert result.server_stats["presumed_aborts"] == 0


def test_sharded_g2pl_needs_no_commit_messages_without_faults():
    # Non-fault g-2PL commits client-locally; TxnDone retires the chains.
    result = run_simulation(_sharded_config("g2pl"))
    assert result.metrics.committed > 0
    assert result.server_stats["twopc_commits"] == 0


def test_opt_commit_saves_rounds_and_beats_classic():
    classic = run_simulation(_sharded_config("s2pl"))
    opt = run_simulation(_sharded_config("s2pl", commit_protocol="2pc-opt"))
    assert opt.server_stats["twopc_commits"] > 0
    assert opt.messages_sent < classic.messages_sent
    assert opt.mean_response_time < classic.mean_response_time


def test_single_shard_sharded_config_matches_plain_run():
    # There is one path: the classes that run a shard run the whole
    # database. Built on a one-shard map they must replay the
    # shard_map=None run event for event (deadlock and abort included);
    # what the map adds is reporting — per-shard round attribution and
    # the 2PC counters — not behaviour.
    from tests.helpers import Harness, R, W, spec

    for protocol in ("s2pl", "g2pl"):
        runs = []
        for shard_map in (None, ShardMap(1, 4)):
            h = Harness(protocol, n_clients=3, n_items=4,
                        shard_map=shard_map, commit_protocol="2pc-opt")
            h.launch(1, spec((0, W), (1, R)), txn_id=1)
            h.launch(2, spec((1, W), (0, W)), delay=0.5, txn_id=2)
            h.launch(3, spec((0, R), (2, W), (3, R)), delay=1.0, txn_id=3)
            outcomes = h.run()
            assert len(outcomes) == 3
            runs.append((h.sim.now, h.sim.processed_events,
                         h.network.stats.messages_sent, outcomes))
            reported = h.server.stats()
            assert ("twopc_commits" in reported) == (shard_map is not None)
            assert not reported.get("twopc_commits")
        assert runs[0] == runs[1], protocol


def test_sharded_runs_are_deterministic_across_jobs():
    from repro.core.parallel import run_cells
    from repro.core.runner import replication_cells
    from repro.perf.fingerprint import result_fingerprint

    config = _sharded_config("g2pl", total_transactions=40)
    cells = replication_cells(config, 2, base_seed=3)
    serial = [result_fingerprint(r) for r in run_cells(cells, jobs=1)]
    pooled = [result_fingerprint(r) for r in run_cells(cells, jobs=2)]
    assert serial == pooled


def test_sharded_fault_run_recovers_from_client_crashes():
    # Crash two clients mid-run under message loss and jitter; the crash
    # sweep, 2PC termination, and chain repair keep the merged history
    # serializable (run_simulation raises otherwise).
    faults = "loss=0.02,jitter=5,crash=2@2000:6000"
    for protocol in ("s2pl", "g2pl"):
        result = run_simulation(_sharded_config(
            protocol, faults=faults, network_latency=50.0,
            total_transactions=80))
        assert result.metrics.committed > 0
        assert result.server_stats["twopc_commits"] >= 0
        stats = result.server_stats
        assert stats["twopc_commits"] + stats["twopc_aborts"] >= 0


# ---------------------------------------------------------------------------
# Cooperative termination (coordinator crash between prepare and decide)
# ---------------------------------------------------------------------------

def _two_shard_servers():
    from repro.network.topology import UniformTopology

    sim = Simulator()
    config = SimulationConfig(protocol="s2pl", n_clients=2, n_items=4,
                              n_shards=2, total_transactions=10,
                              warmup_transactions=0)
    shard_map = ShardMap(2, 4)
    history = HistoryRecorder()
    network = Network(sim, UniformTopology(5.0))
    servers = []
    for shard, site_id in enumerate(shard_map.server_ids):
        server = S2PLServer(
            sim, config, VersionedStore(shard_map.items_of(shard)),
            history, site_id=site_id, shard_map=shard_map)
        network.add_site(server)
        servers.append(server)
    return sim, servers, history


def test_termination_commits_when_any_peer_committed():
    sim, (a, b), history = _two_shard_servers()
    b.twopc_commits.add(7)
    a._prepared[7] = _PreparedTxn(client_id=1, participants=(0, -1),
                                  updates={0: "t7v1"}, prepared_at=0.0)
    a._start_termination(7)
    sim.run()
    assert a.terminations_started == 1
    assert 7 in a.twopc_commits
    assert not a._prepared
    assert not a._terminating
    assert 7 in history.committed
    assert a.presumed_aborts == 0


def test_termination_presumes_abort_when_no_peer_committed():
    sim, (a, b), _history = _two_shard_servers()
    a._prepared[7] = _PreparedTxn(client_id=1, participants=(0, -1),
                                  updates={0: "t7v1"}, prepared_at=0.0)
    a._start_termination(7)
    sim.run()
    assert a.presumed_aborts == 1
    assert 7 in a.twopc_aborts
    assert not a._prepared
    # The reclaim looks like a sweep: locks freed, txn marked swept.
    assert 7 in a._swept


def test_termination_with_no_peers_presumes_abort_locally():
    sim, (a, _b), _history = _two_shard_servers()
    a._prepared[7] = _PreparedTxn(client_id=1, participants=(0,),
                                  updates={}, prepared_at=0.0)
    a._start_termination(7)
    sim.run()
    assert a.presumed_aborts == 1
    assert 7 in a.twopc_aborts


def test_outcome_status_reflects_permanent_record():
    _sim, (a, _b), _history = _two_shard_servers()
    a.twopc_commits.add(1)
    a.twopc_aborts.add(2)
    a._prepared[3] = _PreparedTxn(client_id=1, participants=(0, -1),
                                  updates={}, prepared_at=0.0)
    assert a._outcome_status(1) == "committed"
    assert a._outcome_status(2) == "aborted"
    assert a._outcome_status(3) == "prepared"
    assert a._outcome_status(99) == "unknown"


def test_mid_2pc_coordinator_crash_is_terminated_end_to_end():
    # Integration: with crashed coordinators the prepared-transaction
    # sweep must start cooperative termination rather than leak locks.
    faults = "loss=0.02,jitter=5,crash=2@4000:9000,crash=5@12000"
    result = run_simulation(_sharded_config(
        "s2pl", n_clients=6, network_latency=100.0,
        total_transactions=100, faults=faults, seed=5))
    assert result.metrics.committed > 0
    assert result.server_stats["crash_reclaims"] >= 1


# ---------------------------------------------------------------------------
# Regression: multi-server probes
# ---------------------------------------------------------------------------

class _FakeServer:
    gauges = (("lock_queue_depth", "queue_depth"),
              ("fl_occupancy", "fl_occupancy"))

    def __init__(self, depth, fl):
        self._depth = depth
        self._fl = fl

    def queue_depth(self):
        return self._depth

    def fl_occupancy(self):
        return self._fl


class _FakeTracer:
    in_flight_total = 0


def test_default_sources_sums_gauges_over_shards():
    sim = Simulator()
    servers = [_FakeServer(2, 1), _FakeServer(3, 4)]
    sources = dict(default_sources(sim, None, servers, _FakeTracer()))
    assert sources["lock_queue_depth"]() == 5
    assert sources["fl_occupancy"]() == 5


def test_default_sources_single_server_series_unchanged():
    sim = Simulator()
    single = _FakeServer(2, 1)
    solo = dict(default_sources(sim, None, single, _FakeTracer()))
    listed = dict(default_sources(sim, None, [single], _FakeTracer()))
    assert solo["lock_queue_depth"]() == listed["lock_queue_depth"]() == 2
    assert solo["fl_occupancy"]() == listed["fl_occupancy"]() == 1


# ---------------------------------------------------------------------------
# CLI and analysis plumbing
# ---------------------------------------------------------------------------

def test_cli_run_accepts_sharding_flags(capsys):
    from repro.cli import main

    code = main(["run", "--protocol", "s2pl", "--shards", "4",
                 "--regions", "2", "--intra-latency", "1",
                 "--commit", "2pc-opt", "--cross-shard", "0.5",
                 "--clients", "4", "--items", "8", "--latency", "25",
                 "--transactions", "30", "--warmup", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "twopc_commits" in out


def test_shard_regime_dominance_report():
    from repro.analysis.crossover import ShardRegime, describe_shard_grid
    from repro.core.experiments import ExperimentResult, ExperimentSeries

    result = ExperimentResult(experiment_id="x", title="t",
                              x_label="latency", y_label="response")
    result.series["s2pl"] = ExperimentSeries(
        "s2pl", xs=[1.0, 100.0], ys=[10.0, 200.0], half_widths=[0, 0])
    result.series["g2pl"] = ExperimentSeries(
        "g2pl", xs=[1.0, 100.0], ys=[12.0, 150.0], half_widths=[0, 0])
    regime = ShardRegime(n_shards=2, commit_protocol="2pc",
                         response=result, aborts=None, crossover=23.0)
    assert regime.dominant is None
    assert "s2pl wins below" in regime.describe()
    text = describe_shard_grid([regime])
    assert "commit=2pc" in text and "shards=2" in text
