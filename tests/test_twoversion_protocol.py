"""Protocol-level tests for two-version 2PL (the §3.4 comparator).

2V-2PL commits are server-certified: the client's response time includes
the commit round trip, and a commit request can be refused (aborting the
transaction) when certification deadlocks.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    Harness,
    R,
    ReferenceTwoVersionServer,
    W,
    committed_reads,
    spec,
)


def test_single_writer_commits():
    h = Harness("2v2pl", n_clients=1, latency=10.0)
    h.launch(1, spec((0, W), think=1.0))
    outcomes = h.run()
    assert outcomes[1].committed
    # request(10) + ship(10) + think(1) + commit request(10) + ack(10).
    assert outcomes[1].response_time == pytest.approx(41.0)
    assert h.store.read(0).version == 1
    h.check_serializable()


def test_writer_overlaps_readers_beating_s2pl():
    """The defining property: the writer executes concurrently with a
    long reader and finishes earlier than it would under s-2PL (where it
    could not even start until the reader released)."""
    ends = {}
    for protocol in ("2v2pl", "s2pl"):
        h = Harness(protocol, n_clients=3, latency=10.0)
        h.launch(1, spec((0, R), think=100.0), txn_id=1)
        h.launch(2, spec((0, W), think=1.0), delay=1.0, txn_id=2)
        outcomes = h.run()
        assert all(out.committed for out in outcomes.values())
        h.check_serializable()
        ends[protocol] = outcomes[2].end_time
    assert ends["2v2pl"] < ends["s2pl"]


def test_certification_delays_install_until_readers_drain():
    h = Harness("2v2pl", n_clients=3, latency=10.0)
    h.launch(1, spec((0, R), think=100.0), txn_id=1)
    h.launch(2, spec((0, W), think=1.0), delay=1.0, txn_id=2)
    # Run until the writer has requested its commit but the reader still
    # holds its read lock: nothing must be installed yet.
    h.run(until=80.0)
    assert h.store.read(0).version == 0
    assert list(h.server.lock_table.waiting()) == [2]  # its certify lock
    h.run()
    assert h.outcomes[2].committed
    assert h.store.read(0).version == 1   # installed after reader drained
    h.check_serializable()


def test_reader_during_write_sees_committed_version():
    h = Harness("2v2pl", n_clients=3, latency=10.0)
    h.launch(1, spec((0, W), think=50.0), txn_id=1)   # slow writer
    h.launch(2, spec((0, R), think=1.0), delay=5.0, txn_id=2)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    reads = [r for r in committed_reads(h.history) if r.txn_id == 2]
    assert reads[0].version == 0  # old committed copy, not the new one
    h.check_serializable()


def test_read_after_certification_sees_new_version():
    h = Harness("2v2pl", n_clients=3, latency=10.0)
    h.launch(1, spec((0, W), think=1.0), txn_id=1)
    h.launch(2, spec((0, R), think=1.0), delay=100.0, txn_id=2)
    h.run()
    reads = [r for r in committed_reads(h.history) if r.txn_id == 2]
    assert reads[0].version == 1
    h.check_serializable()


def test_writers_still_serialize():
    h = Harness("2v2pl", n_clients=3, latency=10.0)
    for client in (1, 2, 3):
        h.launch(client, spec((0, W), think=1.0))
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    assert h.store.read(0).version == 3
    h.check_serializable()


def test_write_write_deadlock_detected():
    h = Harness("2v2pl", n_clients=2, latency=10.0)
    h.launch(1, spec((0, W), (1, W), think=1.0))
    h.launch(2, spec((1, W), (0, W), think=1.0))
    outcomes = h.run()
    aborted = [o for o in outcomes.values() if not o.committed]
    assert len(aborted) == 1
    assert h.server.deadlocks_found >= 1
    h.check_serializable()


def test_certification_crossing_refuses_one_commit():
    """The 2V hazard the certify lock exists for: two transactions each
    read the old copy of what the other writes. Both request commits;
    certification deadlocks; exactly one commit is refused."""
    h = Harness("2v2pl", n_clients=2, n_items=2, latency=10.0)
    h.launch(1, spec((0, W), (1, R), think=5.0), txn_id=1)
    h.launch(2, spec((1, W), (0, R), think=5.0), txn_id=2)
    outcomes = h.run()
    committed = [o for o in outcomes.values() if o.committed]
    aborted = [o for o in outcomes.values() if not o.committed]
    assert len(committed) == 1
    assert len(aborted) == 1
    h.check_serializable()
    # Exactly the survivor's write landed.
    versions = {item: h.store.version(item) for item in h.store.item_ids()}
    assert sorted(versions.values()) == [0, 1]


def test_certification_deadlock_via_queued_reader():
    """txn1 holds a read lock the certifier needs, then queues behind the
    certifier's certify lock on another item: cycle, reader aborted."""
    h = Harness("2v2pl", n_clients=3, n_items=2, latency=10.0)
    # txn1: long think on item 0, so its item-1 request arrives after
    # txn2's commit request has frozen item 1 under the certify lock.
    h.launch(1, spec((0, R), (1, R), think=150.0), txn_id=1)
    h.launch(2, spec((1, W), (0, W), think=5.0), delay=1.0, txn_id=2)
    outcomes = h.run()
    assert outcomes[2].committed       # the certifier gets through
    assert not outcomes[1].committed   # the queued reader was the victim
    h.check_serializable()
    assert {item: h.store.version(item) for item in h.store.item_ids()} == {0: 1, 1: 1}


def test_read_only_costs_one_extra_round_trip():
    from repro import SimulationConfig, run_simulation

    results = {}
    for protocol in ("s2pl", "2v2pl"):
        cfg = SimulationConfig(protocol=protocol, n_clients=6, n_items=8,
                               read_probability=1.0, network_latency=50.0,
                               total_transactions=120,
                               warmup_transactions=20, seed=8)
        results[protocol] = run_simulation(cfg).mean_response_time
    # Identical concurrency read-only; 2V adds the commit round trip (2L).
    assert results["2v2pl"] == pytest.approx(results["s2pl"] + 100.0,
                                             rel=0.05)


def test_contended_runs_serializable_and_strict():
    from repro import SimulationConfig, run_simulation

    for seed in (1, 2, 3):
        result = run_simulation(SimulationConfig(
            protocol="2v2pl", n_clients=10, n_items=6, max_ops=3,
            read_probability=0.5, network_latency=20.0,
            total_transactions=150, warmup_transactions=0, seed=seed))
        assert result.serializability.ok
        assert result.metrics.finished == 150


def _run_key(config, seed):
    """A run's fingerprint and its full history: every access, the
    commit and abort sets, and the commit times."""
    from repro.core import runner
    from repro.perf.fingerprint import result_fingerprint

    built = []

    def assemble(*args, **kwargs):
        built.append(assemble_run(*args, **kwargs))
        return built[-1]

    assemble_run = runner.assemble
    with mock.patch.object(runner, "assemble", assemble):
        result = runner.run_simulation(config, seed=seed)
    history = built[0].history
    return (result_fingerprint(result), history.accesses, history.committed,
            history.aborted, history.commit_times)


@settings(max_examples=25)
@given(n_clients=st.integers(2, 12), n_items=st.integers(3, 10),
       read_probability=st.sampled_from((0.2, 0.5, 0.8)),
       loss=st.sampled_from((0, 0.03)), dup=st.sampled_from((0, 0.02)),
       jitter=st.sampled_from((0, 25)), users=st.sampled_from((None, 4)),
       seed=st.integers(1, 10_000))
def test_the_lock_table_server_replays_the_reference_server(
        n_clients, n_items, read_probability, loss, dup, jitter, users,
        seed):
    """``TwoVersionServer`` runs on the s-2PL server and a two-version
    lock table; the lock manager it replaced (``helpers``) is the oracle.
    Same fingerprint and history on every drawn config, closed-loop or
    population, clean or under loss, duplication and jitter; and again
    with detection's prune off, which skips only searches that could not
    find a cycle."""
    from repro import SimulationConfig
    from repro.protocols import twoversion

    faults = ",".join(f"{name}={value}" for name, value in
                      (("loss", loss), ("dup", dup), ("jitter", jitter))
                      if value) or None
    keywords = dict(
        protocol="2v2pl", n_clients=n_clients, n_items=n_items,
        max_ops=min(4, n_items), read_probability=read_probability, network_latency=20.0,
        faults=faults, total_transactions=200, warmup_transactions=10)
    if users is not None:
        keywords.update(population=n_clients * users, arrival_rate=0.01,
                        max_inflight_per_site=users)
    config = SimulationConfig(**keywords)
    folded = _run_key(config, seed)
    built = []

    def reference(*args):
        built.append(args)
        return ReferenceTwoVersionServer(*args)

    with mock.patch.object(twoversion, "TwoVersionServer", reference):
        assert _run_key(config, seed) == folded
    assert len(built) == 1
    with mock.patch.object(twoversion.TwoVersionServer, "_can_be_waited_on",
                           lambda self, txn_id: True):
        assert _run_key(config, seed) == folded


def test_message_faults_arm_no_crash_sweep():
    """No crash recovery (the registry row rejects crash faults): under
    loss the s-2PL server it inherits from arms no sweep, and its stats
    carry no ``crash_reclaims``."""
    from repro import SimulationConfig
    from repro.core.runner import assemble

    config = SimulationConfig(protocol="2v2pl", n_clients=3, n_items=8,
                              faults="loss=0.05", total_transactions=10,
                              warmup_transactions=0)
    [server] = assemble(config, seed=1).servers
    assert server.fault_mode and server._injector is None
    assert "crash_reclaims" not in server.stats()


def test_a_traced_run_names_every_deadlock_it_finds():
    """One ``lock.deadlock`` row, naming a cycle of two or more, and one
    ``txn.abort`` row per deadlock the server found."""
    from repro import SimulationConfig, run_simulation

    result = run_simulation(SimulationConfig(
        protocol="2v2pl", n_clients=12, n_items=6, network_latency=100.0,
        total_transactions=400, warmup_transactions=20, trace=True,
        record_history=False), seed=7)
    found = result.server_stats["deadlocks_found"]
    deadlocks = [fields for _, kind, fields in result.trace.events
                 if kind == "lock.deadlock"]
    aborts = [fields for _, kind, fields in result.trace.events
              if kind == "txn.abort"]
    assert len(deadlocks) == len(aborts) == found > 0
    assert all(fields["cycle"] >= 2 for fields in deadlocks)
    assert [fields["requester"] for fields in deadlocks] == [
        fields["txn"] for fields in aborts]
