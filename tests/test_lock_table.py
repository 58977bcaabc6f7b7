"""Unit tests for the lock table."""

import pytest

from helpers import blockers_of, held_items, holders, waiters
from repro.locking import LockMode, LockRequestState, LockTable

R, W = LockMode.READ, LockMode.WRITE
GRANTED, WAITING = LockRequestState.GRANTED, LockRequestState.WAITING


@pytest.fixture
def table():
    return LockTable()


def test_first_acquire_granted(table):
    assert table.acquire("t1", "x", R) is GRANTED
    assert table.holds("t1", "x", R)


def test_readers_share(table):
    assert table.acquire("t1", "x", R) is GRANTED
    assert table.acquire("t2", "x", R) is GRANTED
    assert holders(table, "x") == {"t1": R, "t2": R}


def test_writer_blocks_reader_and_vice_versa(table):
    assert table.acquire("t1", "x", W) is GRANTED
    assert table.acquire("t2", "x", R) is WAITING
    assert table.acquire("t3", "x", W) is WAITING
    assert waiters(table, "x") == [("t2", R), ("t3", W)]


def test_reader_cannot_overtake_queued_writer(table):
    table.acquire("t1", "x", R)
    table.acquire("t2", "x", W)  # queued
    assert table.acquire("t3", "x", R) is WAITING  # no overtaking
    assert waiters(table, "x") == [("t2", W), ("t3", R)]


def test_release_grants_fifo_prefix_of_readers(table):
    table.acquire("w", "x", W)
    table.acquire("r1", "x", R)
    table.acquire("r2", "x", R)
    table.acquire("w2", "x", W)
    granted = table.release_all("w")
    assert granted == [("r1", "x", R), ("r2", "x", R)]
    assert holders(table, "x") == {"r1": R, "r2": R}
    assert waiters(table, "x") == [("w2", W)]


def test_release_grants_single_writer(table):
    table.acquire("r1", "x", R)
    table.acquire("w1", "x", W)
    table.acquire("w2", "x", W)
    granted = table.release_all("r1")
    assert granted == [("w1", "x", W)]
    assert waiters(table, "x") == [("w2", W)]


def test_writer_granted_only_after_all_readers_release(table):
    table.acquire("r1", "x", R)
    table.acquire("r2", "x", R)
    table.acquire("w", "x", W)
    assert table.release_all("r1") == []
    assert table.release_all("r2") == [("w", "x", W)]


def test_release_all_spans_items(table):
    table.acquire("t1", "x", W)
    table.acquire("t1", "y", W)
    table.acquire("t2", "x", R)
    table.acquire("t3", "y", R)
    granted = table.release_all("t1")
    assert sorted(granted) == [("t2", "x", R), ("t3", "y", R)]
    assert held_items(table, "t1") == {}


def test_release_drops_queued_requests_of_txn(table):
    table.acquire("t1", "x", W)
    table.acquire("t2", "x", W)  # queued
    table.acquire("t3", "x", R)  # queued behind t2
    granted = table.release_all("t2")  # t2 aborts while waiting
    assert granted == []
    assert waiters(table, "x") == [("t3", R)]
    # t3 is granted when t1 releases
    assert table.release_all("t1") == [("t3", "x", R)]


def test_dropping_queued_writer_unblocks_reader(table):
    table.acquire("r1", "x", R)
    table.acquire("w", "x", W)   # queued
    table.acquire("r2", "x", R)  # stuck behind w
    granted = table.release_all("w")
    assert granted == [("r2", "x", R)]


def test_drop_grants_in_table_order_not_queueing_order(table):
    table.acquire("r0", "x", R)
    table.acquire("r1", "y", R)  # the table holds x, then y
    table.acquire("w", "y", W)   # w queues on y first, then on x
    table.acquire("w", "x", W)
    table.acquire("r2", "x", R)  # both stuck behind w
    table.acquire("r3", "y", R)
    assert table.total_waiters() == 4
    assert table.drop_queued("w") == [("r2", "x", R), ("r3", "y", R)]
    assert table.total_waiters() == 0


def test_rerequest_same_mode_granted(table):
    table.acquire("t1", "x", R)
    assert table.acquire("t1", "x", R) is GRANTED
    table.acquire("t2", "y", W)
    assert table.acquire("t2", "y", W) is GRANTED
    assert table.acquire("t2", "y", R) is GRANTED  # weaker re-request


def test_upgrade_sole_reader(table):
    table.acquire("t1", "x", R)
    assert table.acquire("t1", "x", W) is GRANTED
    assert table.holds("t1", "x", W)


def test_upgrade_with_other_readers_waits_at_head(table):
    table.acquire("t1", "x", R)
    table.acquire("t2", "x", R)
    table.acquire("t3", "x", W)  # queued
    assert table.acquire("t1", "x", W) is WAITING
    assert waiters(table, "x")[0] == ("t1", W)
    granted = table.release_all("t2")
    assert granted == [("t1", "x", W)]
    assert table.holds("t1", "x", W)


def test_blockers_of_reports_holders_and_queue_ahead(table):
    table.acquire("h1", "x", R)
    table.acquire("h2", "x", R)
    table.acquire("w1", "x", W)
    table.acquire("r1", "x", R)
    assert blockers_of(table, "w1", "x") == {"h1", "h2"}
    # r1 waits for the queued writer ahead of it, not for the readers
    assert blockers_of(table, "r1", "x") == {"w1"}


def test_blockers_of_unqueued_txn_is_empty(table):
    table.acquire("t1", "x", W)
    assert blockers_of(table, "t1", "x") == frozenset()
    assert blockers_of(table, "nobody", "x") == frozenset()
    assert table.waits_for("nobody") == frozenset()


def test_lock_state_cleared_when_idle(table):
    table.acquire("t1", "x", W)
    table.release_all("t1")
    assert holders(table, "x") == {}
    assert waiters(table, "x") == []
    assert "x" not in table._items  # fully garbage collected


def test_held_items_reports_modes(table):
    table.acquire("t1", "x", R)
    table.acquire("t1", "y", W)
    assert held_items(table, "t1") == {"x": R, "y": W}
