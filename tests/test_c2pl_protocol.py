"""Protocol-level tests for caching 2PL (c-2PL)."""

import pytest

from helpers import Harness, R, W, committed_reads, spec


def test_second_read_is_a_cache_hit():
    h = Harness("c2pl", n_clients=1, latency=10.0)
    h.launch(1, spec((0, R), think=1.0), txn_id=1)
    h.launch(1, spec((0, R), think=1.0), delay=50.0, txn_id=2)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    assert outcomes[1].response_time == pytest.approx(21.0)  # miss
    assert outcomes[2].response_time == pytest.approx(1.0)   # pure local hit
    client = h.clients[1]
    assert client.cache_hits == 1
    assert client.cache_misses == 1
    h.check_serializable()


def test_write_recalls_cached_copies():
    h = Harness("c2pl", n_clients=2, latency=10.0)
    h.launch(1, spec((0, R), think=1.0), txn_id=1)     # client 1 caches 0
    h.launch(2, spec((0, W), think=1.0), delay=50.0, txn_id=2)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    assert h.server.callbacks_sent == 1
    # Client 1's copy is gone; its next read misses.
    assert 0 not in h.clients[1]._cache
    h.check_serializable()


def test_cached_read_never_stale():
    h = Harness("c2pl", n_clients=2, latency=10.0)
    h.launch(1, spec((0, R), think=1.0), txn_id=1)
    h.launch(2, spec((0, W), think=1.0), delay=50.0, txn_id=2)
    h.launch(1, spec((0, R), think=1.0), delay=120.0, txn_id=3)
    h.run()
    reads = [r for r in committed_reads(h.history) if r.txn_id == 3]
    assert reads[0].version == 1  # saw the new version, not the stale cache
    h.check_serializable()


def test_busy_cache_defers_recall_until_commit():
    h = Harness("c2pl", n_clients=2, latency=10.0)
    # Client 1 reads item 0 twice within a long transaction (cache use),
    # while client 2 writes it: the recall must wait for txn 1's commit.
    h.launch(1, spec((0, R), think=1.0), txn_id=1)          # warm the cache
    h.launch(1, spec((0, R), (1, R), think=40.0), delay=40.0, txn_id=2)
    h.launch(2, spec((0, W), think=1.0), delay=60.0, txn_id=3)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    # Strictness: the writer could not finish before the cached reader.
    assert outcomes[3].end_time > outcomes[2].end_time
    h.check_serializable()


def test_callback_deadlock_detected():
    """A writer waiting on a busy cached copy forms a wait-for edge; if the
    cache user in turn waits on the writer's locks, someone aborts."""
    h = Harness("c2pl", n_clients=2, latency=10.0)
    h.launch(1, spec((0, R), think=1.0), txn_id=1)  # client 1 caches item 0
    # txn 2 at client 1: uses cached 0, then wants 1.
    h.launch(1, spec((0, R), (1, W), think=5.0), delay=40.0, txn_id=2)
    # txn 3 at client 2: takes 1, then writes 0 (recall blocks on txn 2).
    h.launch(2, spec((1, W), (0, W), think=5.0), delay=40.0, txn_id=3)
    outcomes = h.run()
    aborted = [o for o in outcomes.values() if not o.committed]
    assert len(aborted) == 1
    h.check_serializable()


def test_recall_of_a_copy_pinned_twice_reports_both_transactions():
    """A population site: two local transactions pin the recalled copy.
    The server needs a wait-for edge to each; told only about the first,
    it misses the cycle through the second once the first commits, and
    stalls."""
    h = Harness("c2pl", n_clients=2, latency=10.0, population=2)
    h.launch(1, spec((0, R), think=1.0), txn_id=1)   # client 1 caches item 0
    # txns 2 and 3 at client 1 both use the cached copy; 3 then wants item 1.
    h.launch(1, spec((0, R), think=60.0), delay=40.0, txn_id=2)
    h.launch(1, spec((0, R), (1, R), think=10.0), delay=41.0, txn_id=3)
    # txn 4 at client 2 holds item 1, then writes item 0: the recall finds
    # the copy pinned by 2 and 3, and 3 is waiting for 4's lock on item 1.
    h.launch(2, spec((1, W), (0, W), think=5.0), delay=40.0, txn_id=4)
    seen = []
    detect = h.server._detect_and_resolve

    def recording_detect(txn_id):
        seen.append(set(h.server._busy_edges))
        detect(txn_id)

    h.server._detect_and_resolve = recording_detect
    outcomes = h.run()
    assert {(4, 2), (4, 3)} in seen       # both busy edges, at once
    assert sorted(outcomes) == [1, 2, 3, 4]  # nobody is left waiting
    assert [o.txn_id for o in outcomes.values() if not o.committed] in (
        [3], [4])                          # the 4 -> 3 -> 4 cycle was broken
    h.check_serializable()


def test_population_writer_recalls_its_own_sites_copy():
    """At a population site a writer's own client is recalled too: a
    sibling transaction still reading the cached copy must finish before
    the write lands, or it reads item 0 before the writer and item 1
    after it."""
    h = Harness("c2pl", n_clients=1, latency=10.0, population=2)
    h.launch(1, spec((0, R), think=1.0), txn_id=1)   # client 1 caches item 0
    h.launch(1, spec((0, R), (1, R), think=30.0), delay=40.0, txn_id=2)
    h.launch(1, spec((0, W), (1, W), think=1.0), delay=45.0, txn_id=3)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    assert h.server.callbacks_sent == 2  # items 0 and 1, both from site 1
    assert outcomes[3].end_time > outcomes[2].end_time
    h.check_serializable()


def test_population_recall_stall_config_runs_to_completion(monkeypatch):
    """Two users of one site pin a copy that writer 54 recalls: the
    server must hold the busy edges to both 52 and 55 at once. Told only
    of the first, this run stalls."""
    from repro import SimulationConfig, run_simulation
    from repro.protocols.c2pl import C2PLServer

    seen = []
    on_ack = C2PLServer.on_CacheRecallAck

    def recording_ack(self, msg):
        on_ack(self, msg)
        seen.append(set(self._busy_edges))

    monkeypatch.setattr(C2PLServer, "on_CacheRecallAck", recording_ack)
    config = SimulationConfig(
        protocol="c2pl", n_clients=2, n_items=2, read_probability=0.7,
        network_latency=25.0, max_ops=2, access_skew=1.0, seed=10,
        population=4, arrival_rate=0.05, max_inflight_per_site=2,
        total_transactions=60, warmup_transactions=0)
    result = run_simulation(config)
    assert any({(54, 52), (54, 55)} <= edges for edges in seen)
    assert result.metrics.finished == 60
    assert result.serializability.ok


def test_writer_caches_its_own_update():
    h = Harness("c2pl", n_clients=1, latency=10.0)
    h.launch(1, spec((0, W), think=1.0), txn_id=1)
    h.launch(1, spec((0, R), think=1.0), delay=60.0, txn_id=2)
    outcomes = h.run()
    assert outcomes[2].response_time == pytest.approx(1.0)  # local hit
    reads = [r for r in committed_reads(h.history) if r.txn_id == 2]
    assert reads[0].version == 1
    h.check_serializable()


def test_aborted_writer_update_not_cached():
    h = Harness("c2pl", n_clients=2, latency=10.0)
    h.launch(1, spec((0, W), (1, W), think=1.0), txn_id=1)
    h.launch(2, spec((1, W), (0, W), think=1.0), txn_id=2)
    outcomes = h.run()
    aborted = [o for o in outcomes.values() if not o.committed]
    assert len(aborted) == 1
    victim_client = aborted[0].client_id
    # The victim's locally written values were dropped from its cache.
    for item_id, entry in h.clients[victim_client]._cache.items():
        assert entry[0] <= h.store.read(item_id).version
    h.check_serializable()


def test_read_only_workload_faster_than_s2pl():
    """With everything cacheable, c-2PL beats s-2PL on repeat reads."""
    from repro import SimulationConfig, run_simulation

    results = {}
    for proto in ("s2pl", "c2pl"):
        cfg = SimulationConfig(protocol=proto, n_clients=5, n_items=5,
                               read_probability=1.0, network_latency=100.0,
                               total_transactions=150,
                               warmup_transactions=30, seed=7)
        results[proto] = run_simulation(cfg).mean_response_time
    assert results["c2pl"] < results["s2pl"]
