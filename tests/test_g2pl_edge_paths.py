"""Edge-path tests for g-2PL: races, abort plumbing, asymmetric networks."""

from repro.network.faults import FaultInjector
from repro.network.reliable import ReliableLink
from repro.protocols.messages import CommitDecision, ReleaseWaiver
from repro.protocols.sharding import ShardMap
from repro.sim.rng import RandomStreams

from helpers import Harness, MatrixTopology, R, W, spec


def asymmetric_topology(n_clients, server_client=50.0, client_client=1.0):
    """Clients near each other, far from the server — the regime where a
    reader's release can overtake the server's concurrent MR1W ship."""
    latencies = {}
    for a in range(1, n_clients + 1):
        latencies[(0, a)] = server_client
        for b in range(1, n_clients + 1):
            if a != b:
                latencies[(a, b)] = client_client
    return MatrixTopology(latencies)


def test_mr1w_release_beating_gship_race():
    """With client-client latency << server-client latency, the reader's
    release reaches the writer before the server's concurrent data ship.
    The early_releases buffer must absorb it."""
    h = Harness("g2pl", n_clients=3, mr1w=True,
                topology=asymmetric_topology(3))
    # Primer holds the item so reader+writer share one window.
    h.launch(3, spec((0, W), think=1.0), txn_id=100)
    h.launch(1, spec((0, R), think=0.1), delay=1.0, txn_id=1)   # fast reader
    h.launch(2, spec((0, W), think=200.0), delay=1.5, txn_id=2)  # slow writer
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    # reader committed long before the writer even received the data;
    # its release crossed the ship. The final version still lands
    # (primer's write + the chained writer's write).
    assert h.store.read(0).version == 2
    h.check_serializable()
    h.server.assert_invariants()


def test_basic_mode_release_data_race():
    """Same race without MR1W: the data rides the reader releases."""
    h = Harness("g2pl", n_clients=4, mr1w=False,
                topology=asymmetric_topology(4))
    h.launch(4, spec((0, W), think=1.0), txn_id=100)
    h.launch(1, spec((0, R), think=0.1), delay=1.0, txn_id=1)
    h.launch(2, spec((0, R), think=5.0), delay=1.0, txn_id=2)
    h.launch(3, spec((0, W), think=1.0), delay=1.5, txn_id=3)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    assert h.store.read(0).version == 2  # primer + one chained writer
    h.check_serializable()


def test_aborted_txn_expect_items_arrive_later():
    """A transaction aborted while items are still in flight to it must
    forward them when they arrive (AbortNotice.expect_items plumbing)."""
    h = Harness("g2pl", n_clients=3, latency=10.0)
    # txn 1 will hold item 0 for a long time; txn 2 is queued behind it on
    # item 0 (in flight to txn 2 only much later) while it holds item 1
    # and deadlocks via item 1 <-> item 0 crossing with txn 1.
    h.launch(1, spec((0, W), (1, W), think=30.0), txn_id=1)
    h.launch(2, spec((1, W), (0, W), think=1.0), delay=5.0, txn_id=2)
    outcomes = h.run()
    aborted = [o for o in outcomes.values() if not o.committed]
    assert len(aborted) == 1
    # Whatever was in flight to the victim was forwarded: both items are
    # home and carry the survivor's writes.
    assert h.store.read(0).version + h.store.read(1).version == 2
    h.check_serializable()
    h.server.assert_invariants()


def test_three_way_crossing_aborts_minimally():
    h = Harness("g2pl", n_clients=3, n_items=3, latency=10.0)
    h.launch(1, spec((0, W), (1, W), think=1.0), txn_id=1)
    h.launch(2, spec((1, W), (2, W), think=1.0), txn_id=2)
    h.launch(3, spec((2, W), (0, W), think=1.0), txn_id=3)
    outcomes = h.run()
    committed = sum(1 for o in outcomes.values() if o.committed)
    assert committed >= 1
    h.check_serializable()
    h.server.assert_invariants()


def test_deep_chains_with_interleaved_aborts():
    """A stress pattern: many small crossings over few items."""
    h = Harness("g2pl", n_clients=4, n_items=2, latency=5.0)
    txn_id = 0
    for wave in range(4):
        for client in (1, 2, 3, 4):
            txn_id += 1
            items = ((0, W), (1, W)) if client % 2 else ((1, W), (0, W))
            h.launch(client, spec(*items, think=1.0),
                     delay=wave * 120.0 + client, txn_id=txn_id)
    outcomes = h.run()
    assert len(outcomes) == 16
    assert sum(1 for o in outcomes.values() if o.committed) >= 8
    h.check_serializable()
    h.server.assert_invariants()
    # Every item made it home.
    for info in h.server._items.values():
        assert info.chain is None


def test_txn_retired_only_after_all_forwards():
    """An MR1W writer that commits early must stay in the precedence graph
    until its parked updates are released (TxnDone deferral)."""
    h = Harness("g2pl", n_clients=4, mr1w=True, latency=10.0)
    h.launch(4, spec((0, W), think=1.0), txn_id=100)
    h.launch(1, spec((0, R), think=100.0), delay=1.0, txn_id=1)
    h.launch(2, spec((0, W), think=1.0), delay=1.5, txn_id=2)
    h.run(until=80.0)
    # Writer committed but the reader still holds; txn 2 must still be
    # known to the precedence machinery.
    assert h.outcomes[2].committed
    assert 2 in h.server._txns
    h.run()
    assert 2 not in h.server._txns
    h.check_serializable()


def test_windows_drain_when_clients_stop():
    h = Harness("g2pl", n_clients=2, latency=10.0)
    h.launch(1, spec((0, W), think=1.0), txn_id=1)
    h.launch(2, spec((0, W), think=1.0), delay=1.0, txn_id=2)
    h.run()
    info = h.server._items[0]
    assert info.chain is None
    assert not info.window
    assert h.server.precedence._out == h.server.precedence._in == {}


# -- window bookkeeping: the per-transaction index and the O(1) gauge --------

def _run_capturing_server(monkeypatch, config, seed):
    import repro.core.runner as runner_mod

    captured = {}
    real = runner_mod.make_protocol

    def capture(*args, **kwargs):
        server, clients = real(*args, **kwargs)
        captured["server"] = server
        return server, clients

    monkeypatch.setattr(runner_mod, "make_protocol", capture)
    result = runner_mod.run_simulation(config, seed=seed)
    return captured["server"], result


def test_abort_purge_finds_a_crash_victims_window_entry_by_index(monkeypatch):
    """The purge in ``_abort`` finds something only when a client-crash
    victim is waiting in another item's window; the faulted golden config
    does that exactly once at seed 6 (seeds 1-39 otherwise purge nothing).
    The victim's ``window_items`` must lead straight to that window."""
    from repro.perf.goldens import golden_config
    from repro.protocols.g2pl import G2PLServer

    aborts = []
    real_abort = G2PLServer._abort

    def recording_abort(self, txn_id, reason):
        aborts.append((reason, set(self._txns[txn_id].window_items),
                       self.window_purged))
        real_abort(self, txn_id, reason)

    monkeypatch.setattr(G2PLServer, "_abort", recording_abort)
    config, _ = golden_config("g2pl_faulted")
    server, _ = _run_capturing_server(monkeypatch, config, seed=6)
    assert server.window_purged == 1
    waiting = [(reason, items) for reason, items, _ in aborts if items]
    assert len(waiting) == 1
    reason, items = waiting[0]
    assert reason == "client-crash" and len(items) == 1
    pending = sum(len(info.window) for info in server._items.values())
    assert server.window_enqueued == server.window_frozen + 1 + pending
    server.assert_invariants()  # ledger balances and index equals scan


def test_queue_depth_equals_the_window_scan_at_every_probe_tick(monkeypatch):
    from repro.perf.goldens import golden_config
    from repro.protocols.g2pl import G2PLServer

    depths = []
    ledger_depth = G2PLServer.queue_depth

    def checked_depth(self):
        depth = ledger_depth(self)
        assert depth == sum(len(info.window)
                            for info in self._items.values())
        depths.append(depth)
        return depth

    monkeypatch.setattr(G2PLServer, "queue_depth", checked_depth)
    config, _ = golden_config("g2pl_faulted")
    config = config.replace(trace=True, probe_interval=40.0)
    server, result = _run_capturing_server(monkeypatch, config, seed=6)
    assert server.window_purged == 1  # the purge door is on the path too
    ticks = sum(1 for _, name, _ in result.trace.probes
                if name == "lock_queue_depth")
    assert len(depths) == ticks > 50
    assert max(depths) > 1


def faulted_harness(crash, **overrides):
    """A g-2PL harness in fault mode with the runner's fault wiring (the
    injector on the network, reliable links, the server's recovery
    timers) but no crash controller: a test crashes a client itself."""
    h = Harness("g2pl", faults=f"crash={crash}", **overrides)
    injector = FaultInjector(h.config.faults,
                             RandomStreams(1).spawn("faults"))
    h.network.faults = injector
    for site in (h.server, *h.clients.values()):
        site.reliable = ReliableLink(h.sim, site, rto=50.0)
    h.server.enable_fault_recovery(injector, rto=50.0, chain_timeout=100.0,
                                   sweep_interval=100.0)
    return h


def test_chain_repair_waives_the_crashed_reader_only():
    """Readers 1 and 2 share a read group ahead of writer 3; client 1
    crashes before its copy lands. The repair owes writer 3 the release
    of the dead reader alone: the live one releases for itself."""
    h = faulted_harness("1@40", n_clients=4, n_items=2, latency=10.0)
    waivers = []
    send = h.server.send

    def spy(dst, payload, size=1.0):
        if isinstance(payload, ReleaseWaiver):
            waivers.append((payload.from_txn, payload.to_txn, dst))
        return send(dst, payload, size=size)

    h.server.send = spy
    # the primer holds item 0 while the group and the writer collect
    h.launch(4, spec((0, W), think=20.0), txn_id=100)
    h.launch(1, spec((0, R), think=500.0), delay=1.0, txn_id=1)
    h.launch(2, spec((0, R), think=1.0), delay=1.0, txn_id=2)
    h.launch(3, spec((0, W), think=1.0), delay=1.5, txn_id=3)
    h.sim.call_later(40.0, h.clients[1].on_crash)
    outcomes = h.run(until=3000.0)
    assert waivers == [(1, 3, 3)]
    assert h.server.chain_repairs == 1 and 1 in h.server._dead
    assert all(outcomes[txn].committed for txn in (100, 2, 3))
    assert h.server._items[0].chain is None  # the item came home


def test_a_refused_vote_abort_retires_a_live_participant():
    """Sharded fault mode: the coordinator aborts after another shard
    refused its vote. A shard that still has the transaction registered
    and alive retires it on the decision, before any TxnDone."""
    h = faulted_harness("4@100000", n_clients=4, n_items=4, latency=10.0,
                        shard_map=ShardMap(1, 4))
    h.launch(1, spec((0, W), (1, W), think=50.0), txn_id=5)
    h.run(until=30.0)
    server = h.server
    assert 5 in server._txns and 5 not in server._dead
    server.on_CommitDecision(CommitDecision(txn_id=5, commit=False))
    assert 5 in server._dead and 5 in server.twopc_aborts
    assert 5 not in server._txns
    assert not server.precedence._out
