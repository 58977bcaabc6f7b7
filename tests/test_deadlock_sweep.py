"""The union deadlock sweep against the sweep it replaced.

``MaterialisingDetector`` is the detector as it was before the lock table
cached its wait edges, kept here as the reference: every tick it rebuilds
a ``WaitForGraph`` from a fresh scan of every queue (the brute-force
reading in ``helpers``, not the cache), walks every server's ``_txns``
for ages, deletes sinks Kahn-style and restarts the search from scratch
after each victim. The production sweep must abort the same victims at
the same shards at the same times, whatever the victim policy.
"""

import pytest

from helpers import R, W, brute_force_wait_edges
from repro.core import runner
from repro.core.config import SimulationConfig
from repro.locking import WaitForGraph
from repro.network.topology import Site, UniformTopology
from repro.network.transport import Network
from repro.perf.fingerprint import fingerprint_digest, result_fingerprint
from repro.protocols.messages import LockRequest
from repro.protocols import sharding
from repro.protocols.s2pl import S2PLServer, choose_victim
from repro.protocols.sharding import GlobalDeadlockDetector, ShardMap
from repro.sim.engine import Simulator
from repro.storage.store import VersionedStore
from repro.storage.wal import WriteAheadLog
from repro.validate.history import HistoryRecorder

POLICIES = ("requester", "oldest", "youngest")


def kahn_find_any_cycle(wfg):
    """``WaitForGraph.find_any_cycle`` as it was: reverse adjacency, sink
    deletion by out-degree, then a search of the whole graph."""
    out_degree = {node: len(holders) for node, holders in wfg._out.items()}
    waiters_of = {}
    for waiter, holders in wfg._out.items():
        for holder in holders:
            waiters_of.setdefault(holder, []).append(waiter)
    sinks = [node for node in waiters_of if node not in out_degree]
    while sinks:
        for waiter in waiters_of.get(sinks.pop(), ()):
            out_degree[waiter] -= 1
            if not out_degree[waiter]:
                sinks.append(waiter)
    for node in sorted(out_degree, key=repr):
        if out_degree[node]:
            cycle = wfg.find_cycle_from(node)
            if cycle:
                return cycle
    return None


class MaterialisingDetector(GlobalDeadlockDetector):
    """The parent's sweep, trace event included."""

    def _sweep(self):
        union = WaitForGraph()
        waiting_at = {}
        first_seen = {}
        for server in self.servers:
            for txn_id, blockers in brute_force_wait_edges(
                    server.lock_table).items():
                union.add_edges(txn_id, blockers)
                waiting_at.setdefault(txn_id, server)
            for txn_id, (_client, seen) in server._txns.items():
                if txn_id not in first_seen or seen < first_seen[txn_id]:
                    first_seen[txn_id] = seen
        while True:
            cycle = kahn_find_any_cycle(union)
            if cycle is None:
                return
            victim = choose_victim(cycle, self.victim_policy,
                                   lambda txn: first_seen.get(txn, 0.0))
            server = waiting_at[victim]
            assert victim in server._txns and victim not in server._dead
            self.distributed_deadlocks += 1
            if self.sim.tracer is not None:
                self.sim.tracer.emit(
                    "lock.deadlock.distributed", victim=victim,
                    cycle=len(set(cycle)), shard=server.site_id)
            server._abort(victim, reason="distributed-deadlock")
            union.remove_node(victim)


def run_and_log(monkeypatch, detector_class, seed, policy):
    """One small 3-shard run under ``detector_class``: (digest, the
    distributed aborts as ``(time, victim, cycle length, shard)``)."""
    monkeypatch.setattr(sharding, "GlobalDeadlockDetector", detector_class)
    config = SimulationConfig(
        protocol="s2pl", n_clients=9, n_items=9, n_shards=3, n_regions=3,
        intra_region_latency=1.0, network_latency=25.0,
        cross_shard_probability=0.6, read_probability=0.4,
        total_transactions=120, warmup_transactions=0, record_history=False,
        victim_policy=policy, trace=True, seed=seed)
    result = runner.run_simulation(config)
    log = [(when, fields["victim"], fields["cycle"], fields["shard"])
           for when, kind, fields in result.trace.events
           if kind == "lock.deadlock.distributed"]
    assert len(log) == result.server_stats["distributed_deadlocks"]
    return fingerprint_digest(result_fingerprint(result)), log


@pytest.mark.parametrize("policy", POLICIES)
def test_sweep_aborts_what_the_materialising_sweep_aborted(
        monkeypatch, policy):
    aborts = shared_ticks = 0
    for seed in range(40):
        expected = run_and_log(monkeypatch, MaterialisingDetector, seed,
                               policy)
        assert run_and_log(monkeypatch, GlobalDeadlockDetector, seed,
                           policy) == expected, seed
        times = [when for when, *_ in expected[1]]
        aborts += len(times)
        shared_ticks += len(times) - len(set(times))
    # the comparison is not vacuous: plenty of victims, and ticks that
    # resolved more than one cycle
    assert aborts > 400 and shared_ticks > 0


# -- one tick, two cycles ----------------------------------------------------

class _Sink(Site):
    """A client site that only collects what the servers send it."""

    def __init__(self, site_id):
        super().__init__(site_id)
        self.got = []

    def receive(self, envelope):
        self.got.append(envelope.payload)


def _two_cycles(detector_class):
    """Two shards (A: items 0-3, B: items 4-7) holding two distributed
    cycles, 1 <-> 2 and 3 <-> 4, with no local cycle anywhere. Victim 1
    also heads item 2's queue at A in front of a read by 3, so aborting 1
    grants that read: 3 was queued at A *and* B when the sweep started and
    is queued only at B once the first victim is gone."""
    sim = Simulator()
    config = SimulationConfig(protocol="s2pl", n_clients=9, n_items=8,
                              n_shards=2, total_transactions=10,
                              warmup_transactions=0)
    shard_map = ShardMap(2, 8)
    network = Network(sim, UniformTopology(5.0))
    servers = []
    for shard, site_id in enumerate(shard_map.server_ids):
        server = S2PLServer(
            sim, config, VersionedStore(shard_map.items_of(shard)),
            WriteAheadLog(), HistoryRecorder(), site_id=site_id,
            shard_map=shard_map)
        network.add_site(server)
        servers.append(server)
    for client_id in range(1, 10):
        network.add_site(_Sink(client_id))
    a, b = servers
    requests = [  # (server, txn, item, mode); txn t runs at client t
        (a, 2, 0, W), (b, 1, 4, W), (a, 3, 1, W), (b, 4, 5, W), (a, 9, 2, R),
        (a, 1, 0, W), (b, 2, 4, W),   # cycle 1 <-> 2
        (b, 3, 5, W), (a, 4, 1, W),   # cycle 3 <-> 4
        (a, 1, 2, W), (a, 3, 2, R),   # 3 reads behind victim 1's write
    ]
    for server, txn, item, mode in requests:
        server.on_LockRequest(LockRequest(txn_id=txn, item_id=item,
                                          mode=mode, client_id=txn))
    assert a.deadlocks_found == b.deadlocks_found == 0
    detector = detector_class(sim, servers, interval=50.0,
                              stop_when=lambda: True).start()
    return sim, a, b, detector


def test_one_tick_resolves_two_cycles_from_the_sweep_start_snapshot():
    sim, a, b, detector = _two_cycles(GlobalDeadlockDetector)
    assert set(a.lock_table.waiting()) == {1, 3, 4}
    sim.run()
    assert sim.now >= 50.0
    assert (detector.sweeps, detector.cyclic_sweeps,
            detector.distributed_deadlocks) == (1, 1, 2)
    # Victim 1 went first, where it was queued; that granted 3's read ...
    assert a._dead == {1, 3} and b._dead == set()
    assert a.lock_table.holds(3, 2, R)
    # ... yet 3 was still aborted at A, where the snapshot saw it first,
    # not at B where alone it is still queued.
    assert set(a.lock_table.waiting()) == {4}
    assert set(b.lock_table.waiting()) == {2, 3}

    reference = _two_cycles(MaterialisingDetector)
    reference[0].run()
    for mine, theirs in zip((a, b), reference[1:3]):
        assert mine._dead == theirs._dead
        assert mine.aborts_initiated == theirs.aborts_initiated
        assert (set(mine.lock_table.waiting())
                == set(theirs.lock_table.waiting()))
    assert reference[3].distributed_deadlocks == 2


def test_a_quiet_sweep_counts_and_leaves_no_cancelled_timer():
    sim = Simulator()
    ticks = iter([False, False, True])
    detector = GlobalDeadlockDetector(
        sim, [], interval=10.0, stop_when=lambda: next(ticks)).start()
    sim.run()
    assert (sim.now, detector.sweeps, detector.cyclic_sweeps) == (30.0, 3, 0)
    assert sim.cancelled_events == 0
