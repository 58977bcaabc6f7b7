"""Protocol-level tests for s-2PL on hand-built scenarios."""

import pytest

from helpers import Harness, R, W, spec


def test_single_transaction_commits_in_three_rounds():
    h = Harness("s2pl", n_clients=1, latency=10.0)
    h.launch(1, spec((0, W), think=1.0))
    outcomes = h.run()
    out = outcomes[1]
    assert out.committed
    # request (10) + ship (10) + think (1); commit point at client.
    assert out.response_time == pytest.approx(21.0)
    assert h.store.read(0).version == 1


def test_read_only_transactions_share():
    h = Harness("s2pl", n_clients=3, latency=10.0)
    for client in (1, 2, 3):
        h.launch(client, spec((0, R), think=1.0))
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    # All three share the read lock: identical (minimal) response times.
    times = {round(out.response_time, 6) for out in outcomes.values()}
    assert times == {21.0}
    h.check_serializable()


def test_writers_serialize():
    h = Harness("s2pl", n_clients=3, latency=10.0)
    for client in (1, 2, 3):
        h.launch(client, spec((0, W), think=1.0))
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    ends = sorted(out.end_time for out in outcomes.values())
    # Each successor waits for the predecessor's release round trip:
    # release (10) + ship (10) + think (1) = 21 apart.
    assert ends[1] - ends[0] == pytest.approx(21.0)
    assert ends[2] - ends[1] == pytest.approx(21.0)
    assert h.store.read(0).version == 3
    h.check_serializable()


def test_deadlock_detected_and_requester_aborted():
    h = Harness("s2pl", n_clients=2, latency=10.0)
    # Classic crossing: t1 takes 0 then 1; t2 takes 1 then 0.
    h.launch(1, spec((0, W), (1, W), think=1.0))
    h.launch(2, spec((1, W), (0, W), think=1.0))
    outcomes = h.run()
    committed = [o for o in outcomes.values() if o.committed]
    aborted = [o for o in outcomes.values() if not o.committed]
    assert len(committed) == 1
    assert len(aborted) == 1
    assert aborted[0].abort_reason == "deadlock"
    assert h.server.deadlocks_found == 1
    h.check_serializable()


def test_victim_release_lets_survivor_finish():
    h = Harness("s2pl", n_clients=2, latency=10.0)
    h.launch(1, spec((0, W), (1, W), think=1.0))
    h.launch(2, spec((1, W), (0, W), think=1.0))
    h.run()
    # After everything drains no locks remain.
    assert h.server.lock_table.held_items(1) == {}
    assert h.server.lock_table.held_items(2) == {}


def test_read_deadlock_via_upgrade_free_crossing():
    # Reads alone never deadlock in s-2PL: shared locks are compatible.
    h = Harness("s2pl", n_clients=2, latency=10.0)
    h.launch(1, spec((0, R), (1, R), think=1.0))
    h.launch(2, spec((1, R), (0, R), think=1.0))
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    assert h.server.deadlocks_found == 0


def test_writer_waits_for_all_readers():
    h = Harness("s2pl", n_clients=3, latency=10.0)
    h.launch(1, spec((0, R), think=5.0))
    h.launch(2, spec((0, R), think=5.0))
    h.launch(3, spec((0, W), think=1.0), delay=1.0)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    reader_ends = max(outcomes[1].end_time, outcomes[2].end_time)
    assert outcomes[3].end_time > reader_ends
    h.check_serializable()


def test_fifo_no_reader_overtaking():
    h = Harness("s2pl", n_clients=3, latency=10.0)
    h.launch(1, spec((0, W), think=5.0))           # holder
    h.launch(2, spec((0, W), think=1.0), delay=1)  # queued writer
    h.launch(3, spec((0, R), think=1.0), delay=2)  # reader behind writer
    outcomes = h.run()
    assert outcomes[3].end_time > outcomes[2].end_time
    h.check_serializable()


def test_versions_advance_per_committed_write():
    h = Harness("s2pl", n_clients=2, latency=5.0)
    h.launch(1, spec((0, W), (1, W), think=1.0))
    h.launch(2, spec((0, W), think=1.0), delay=100.0)  # after t1 finishes
    h.run()
    assert h.store.read(0).version == 2
    assert h.store.read(1).version == 1
    h.check_serializable()


def test_wal_records_and_garbage_collection():
    h = Harness("s2pl", n_clients=1, latency=5.0)
    h.launch(1, spec((0, W), (1, W), think=1.0))
    h.run()
    # Installed updates were logged, forced, and garbage collected.
    assert h.wal.durable_lsn == h.wal.tail_lsn()
    assert len(h.wal) == 0
    assert h.wal.forces >= 1


def test_history_records_read_versions():
    h = Harness("s2pl", n_clients=2, latency=10.0)
    h.launch(1, spec((0, W), think=1.0))
    h.launch(2, spec((0, R), think=1.0), delay=100.0)
    h.run()
    reads = h.history.reads()
    assert len(reads) == 1
    assert reads[0].version == 1  # saw the committed write
    h.check_serializable()


def test_deadlock_aborts_the_requester_only():
    h = Harness("s2pl", n_clients=2, latency=10.0)
    h.launch(1, spec((0, W), (1, W), think=1.0))
    h.launch(2, spec((1, W), (0, W), think=1.0))
    outcomes = h.run()
    assert sum(1 for o in outcomes.values() if not o.committed) == 1
    assert h.server.deadlocks_found == h.server.aborts_initiated == 1
    h.check_serializable()


def test_a_requester_on_two_cycles_traces_the_one_found_first():
    """Requester 1 closes two cycles at once: 1 -> 10 -> 1 and
    1 -> 9 -> 5 -> 1. It is the victim either way; what the expansion
    order decides is the cycle traced. Successors expand in ``repr``
    descending order, "9" before "10", so 10 is pushed last and searched
    first: the 2-cycle. A numeric order would search 9 first and trace
    the 3-cycle."""
    from repro.obs.tracer import Tracer
    from repro.protocols.messages import LockRequest

    h = Harness("s2pl", n_clients=10, n_items=6, latency=10.0)
    tracer = h.sim.tracer = Tracer(h.sim)
    server = h.server
    a, c, d, e = 0, 1, 2, 3
    for txn, item, mode in [
            (9, a, R), (10, a, R), (1, c, W), (1, e, W), (5, d, W),
            (10, c, W),   # 10 waits for 1
            (5, e, W),    # 5 waits for 1
            (9, d, W),    # 9 waits for 5
            (1, a, W)]:   # 1 waits for 9 and 10: both cycles close
        server.on_LockRequest(LockRequest(txn_id=txn, item_id=item,
                                          mode=mode, client_id=txn))
    deadlocks = [fields for _, kind, fields in tracer.events
                 if kind == "lock.deadlock"]
    assert deadlocks == [{"requester": 1, "cycle": 2}]
    assert server.deadlocks_found == server.aborts_initiated == 1


def test_abort_percentage_zero_without_conflicts():
    h = Harness("s2pl", n_clients=2, n_items=4, latency=10.0)
    h.launch(1, spec((0, W), think=1.0))
    h.launch(2, spec((1, W), think=1.0))
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    assert h.server.aborts_initiated == 0
