"""Protocol-level tests for g-2PL on hand-built scenarios."""

import pytest

from helpers import Harness, R, W, spec


def test_single_transaction_commits():
    h = Harness("g2pl", n_clients=1, latency=10.0)
    h.launch(1, spec((0, W), think=1.0))
    outcomes = h.run()
    assert outcomes[1].committed
    # Solo forward list: request (10) + ship (10) + think (1).
    assert outcomes[1].response_time == pytest.approx(21.0)
    assert h.store.read(0).version == 1
    h.check_serializable()


def test_exclusive_chain_forwards_client_to_client():
    """The Figure 1 structure: three writers handed the item directly."""
    h = Harness("g2pl", n_clients=4, latency=10.0)
    # A primer holds the item so the three contenders share one window.
    h.launch(4, spec((0, W), think=1.0))
    for client in (1, 2, 3):
        h.launch(client, spec((0, W), think=1.0), delay=1.0)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    ends = sorted(out.end_time
                  for txn, out in outcomes.items() if txn != 1)
    # wait: txn ids 2,3,4 are the contenders? launch order: primer first.
    h.check_serializable()
    assert h.store.read(0).version == 4
    # Within the chain, successive commits are one hop + think apart
    # (10 + 1), not a full server round trip (2x10 + 1).
    contender_ends = sorted(out.end_time for out in outcomes.values())[1:]
    gaps = [b - a for a, b in zip(contender_ends, contender_ends[1:])]
    assert gaps == [pytest.approx(11.0), pytest.approx(11.0)]


def test_read_group_ships_copies_in_parallel():
    h = Harness("g2pl", n_clients=4, latency=10.0)
    h.launch(4, spec((0, W), think=1.0))  # primer forces one window
    for client in (1, 2, 3):
        h.launch(client, spec((0, R), think=1.0), delay=1.0)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    # The three readers finish simultaneously (copies shipped in parallel).
    reader_ends = sorted(out.end_time for out in outcomes.values())[1:]
    assert reader_ends[0] == reader_ends[1] == reader_ends[2]
    h.check_serializable()


def test_mr1w_writer_executes_concurrently_with_readers():
    """Under MR1W the writer after a read group is shipped concurrently."""
    h = Harness("g2pl", n_clients=4, latency=10.0, mr1w=True)
    h.launch(4, spec((0, W), think=1.0), txn_id=100)
    h.launch(1, spec((0, R), think=50.0), delay=1.0, txn_id=1)
    h.launch(2, spec((0, R), think=50.0), delay=1.0, txn_id=2)
    h.launch(3, spec((0, W), think=1.0), delay=1.5, txn_id=3)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    # The writer's transaction commits when its (short) computation is done,
    # concurrently with the readers' long computations — not after them.
    assert outcomes[3].end_time < outcomes[1].end_time
    assert outcomes[3].end_time < outcomes[2].end_time
    h.check_serializable()
    assert h.store.read(0).version == 2


def test_basic_mode_writer_waits_for_reader_releases():
    """Without MR1W the writer gets the data via the readers' releases."""
    h = Harness("g2pl", n_clients=4, latency=10.0, mr1w=False)
    h.launch(4, spec((0, W), think=1.0), txn_id=100)
    h.launch(1, spec((0, R), think=50.0), delay=1.0, txn_id=1)
    h.launch(2, spec((0, R), think=50.0), delay=1.0, txn_id=2)
    h.launch(3, spec((0, W), think=1.0), delay=1.5, txn_id=3)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    # The writer cannot even start until both readers released.
    assert outcomes[3].end_time > outcomes[1].end_time
    assert outcomes[3].end_time > outcomes[2].end_time
    h.check_serializable()
    assert h.store.read(0).version == 2


def test_mr1w_updates_held_until_reader_releases():
    """The MR1W writer's updates must not reach the server before the
    readers have released, even though the writer commits earlier."""
    h = Harness("g2pl", n_clients=4, latency=10.0, mr1w=True)
    h.launch(4, spec((0, W), think=1.0))
    h.launch(1, spec((0, R), think=80.0), delay=1.0)
    h.launch(2, spec((0, W), think=1.0), delay=1.5)
    h.run(until=60.0)
    # Writer (txn 3) has committed by now, but the store must still hold
    # only the primer's version: the update is parked at the writer.
    assert h.outcomes[3].committed
    assert h.store.read(0).version == 1
    h.run()
    assert h.store.read(0).version == 2
    h.check_serializable()


def test_paper_read_deadlock_is_avoided_by_abort():
    """§3.3's example: t1 reads 0 then 1, t2 reads 1 then 0, crossing
    collection windows — the unavoidable deadlock aborts one of them."""
    h = Harness("g2pl", n_clients=2, latency=10.0)
    h.launch(1, spec((0, R), (1, R), think=1.0))
    h.launch(2, spec((1, R), (0, R), think=1.0))
    outcomes = h.run()
    aborted = [o for o in outcomes.values() if not o.committed]
    committed = [o for o in outcomes.values() if o.committed]
    assert len(aborted) == 1
    assert len(committed) == 1
    assert aborted[0].abort_reason == "precedence-cycle"
    assert h.server.avoidance_aborts == 1
    h.check_serializable()


def test_write_crossing_aborts_one_transaction():
    h = Harness("g2pl", n_clients=2, latency=10.0)
    h.launch(1, spec((0, W), (1, W), think=1.0))
    h.launch(2, spec((1, W), (0, W), think=1.0))
    outcomes = h.run()
    assert sum(1 for o in outcomes.values() if not o.committed) == 1
    h.check_serializable()
    # The aborted transaction's items were forwarded unchanged; the two
    # items carry exactly the survivor's two committed writes.
    versions = {item: h.store.version(item) for item in h.store.item_ids()}
    assert versions[0] + versions[1] == 2
    h.server.assert_invariants()


def test_window_freeze_reorders_to_respect_precedence():
    """A collection window is frozen in precedence order, not arrival
    order: if u must precede v (they sit as read-group and MR1W-writer on
    another item's chain), the window puts u first even though v's request
    arrived earlier — deadlock avoided with no abort (§3.3)."""
    h = Harness("g2pl", n_clients=5, n_items=2, latency=10.0, mr1w=True)
    # Primer on item 0 keeps it away long enough for both contenders'
    # requests to land in the same collection window.
    h.launch(3, spec((0, W), think=45.0), txn_id=100)
    # Primer on item 1 so u's and v's first requests share one window,
    # freezing chain(1) = [R(u), W(v)] with the precedence edge u -> v.
    h.launch(4, spec((1, W), think=1.0), txn_id=101)
    h.launch(1, spec((1, R), (0, W), think=20.0), delay=2.0, txn_id=1)  # u
    h.launch(2, spec((1, W), (0, W), think=2.0), delay=3.0, txn_id=2)   # v
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    assert h.server.avoidance_aborts == 0
    # v's item-0 request arrived first, but u precedes v in the frozen FL,
    # so u finishes first.
    assert outcomes[1].end_time < outcomes[2].end_time
    h.check_serializable()


def test_aborted_transaction_still_forwards_chain_data():
    """An aborted transaction on a dispatched chain passes data through."""
    h = Harness("g2pl", n_clients=3, latency=10.0)
    # txn1 will deadlock-abort while holding item 0 with a successor.
    h.launch(1, spec((0, W), (1, W), think=1.0))
    h.launch(2, spec((1, W), (0, W), think=1.0))
    h.launch(3, spec((0, W), think=1.0), delay=5.0)  # behind txn1 on item 0
    outcomes = h.run()
    assert outcomes[3].committed  # got the item despite a dead predecessor
    h.check_serializable()
    h.server.assert_invariants()


def test_fl_cap_limits_dispatch_size():
    h = Harness("g2pl", n_clients=4, latency=10.0,
                max_forward_list_length=1)
    h.launch(4, spec((0, W), think=1.0))
    for client in (1, 2, 3):
        h.launch(client, spec((0, W), think=1.0), delay=1.0)
    h.run()
    # Every window carried exactly one transaction: a forward list holds
    # at least one, so as many transactions as windows means one each.
    stats = h.server.stats()
    assert stats["fl_txns"] == stats["windows_dispatched"]
    assert h.server.windows_dispatched == 4
    h.check_serializable()


def test_fl_cap_must_be_positive():
    with pytest.raises(ValueError, match="max_forward_list_length"):
        Harness("g2pl", max_forward_list_length=0)


def test_unknown_fl_ordering_rejected():
    with pytest.raises(ValueError, match="fl_ordering"):
        Harness("g2pl", fl_ordering="random")


def test_reads_first_ordering_groups_readers_ahead():
    h = Harness("g2pl", n_clients=4, latency=10.0,
                fl_ordering="reads_first", mr1w=False)
    h.launch(4, spec((0, W), think=1.0))
    h.launch(1, spec((0, W), think=1.0), delay=1.0)  # writer arrives first
    h.launch(2, spec((0, R), think=1.0), delay=2.0)
    h.launch(3, spec((0, R), think=1.0), delay=3.0)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    # Readers (txns 3 and 4 at clients 2 and 3) finish before the writer.
    writer_out = h.outcomes[2]   # txn launched at client 1
    reader_ends = [h.outcomes[3].end_time, h.outcomes[4].end_time]
    assert max(reader_ends) < writer_out.end_time
    h.check_serializable()


def test_expand_read_groups_grafts_reader():
    h = Harness("g2pl", n_clients=3, latency=10.0, expand_read_groups=True)
    h.launch(1, spec((0, R), think=50.0))
    h.launch(2, spec((0, R), think=1.0), delay=15.0)  # arrives mid-flight
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    assert h.server.grafted_reads == 1
    # The grafted reader did not wait for the first reader's long think.
    assert outcomes[2].end_time < outcomes[1].end_time
    h.check_serializable()


def test_graft_not_applied_when_chain_has_writer():
    h = Harness("g2pl", n_clients=3, latency=10.0, expand_read_groups=True)
    h.launch(1, spec((0, W), think=50.0))
    h.launch(2, spec((0, R), think=1.0), delay=15.0)
    outcomes = h.run()
    assert all(out.committed for out in outcomes.values())
    assert h.server.grafted_reads == 0
    assert outcomes[2].end_time > outcomes[1].end_time
    h.check_serializable()


def test_versions_accumulate_through_chain():
    """Two committed writers in one chain return base+2 to the server."""
    h = Harness("g2pl", n_clients=3, latency=10.0)
    h.launch(3, spec((0, W), think=1.0))           # primer: version 1
    h.launch(1, spec((0, W), think=1.0), delay=1.0)
    h.launch(2, spec((0, W), think=1.0), delay=1.0)
    h.run()
    assert h.store.read(0).version == 3
    h.check_serializable()


def test_server_invariants_after_heavy_run():
    h = Harness("g2pl", n_clients=3, latency=5.0)
    for i, client in enumerate((1, 2, 3)):
        h.launch(client, spec((0, W), (1, R), think=1.0), delay=float(i))
        h.launch(client, spec((1, W), (0, R), think=1.0), delay=50.0 + i)
    h.run()
    h.server.assert_invariants()
    h.check_serializable()


def test_returned_chain_installs_its_version():
    h = Harness("g2pl", n_clients=1, latency=5.0)
    h.launch(1, spec((0, W), think=1.0))
    outcomes = h.run()
    assert outcomes[1].committed
    assert h.store.version(0) == 1
    assert h.store.installs == outcomes[1].n_writes == 1
