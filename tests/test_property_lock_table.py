"""Property-based tests (hypothesis) for the lock table."""

from collections import OrderedDict, deque

from hypothesis import given, settings, strategies as st

from helpers import held_items, holders, waiters
from repro.locking import LockMode, LockRequestState, LockTable

R, W = LockMode.READ, LockMode.WRITE

# An action stream: (txn, op) where op is acquire-read/acquire-write on a
# small item pool, or a release of everything the txn holds.
ACTIONS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),        # txn
        st.sampled_from(["read", "write", "release"]),
        st.integers(min_value=0, max_value=3),        # item
    ),
    max_size=60,
)


def apply_actions(actions):
    table = LockTable()
    live_requests = {}  # txn -> set of items it has ever requested
    for txn, op, item in actions:
        if op == "release":
            table.release_all(txn)
        else:
            mode = R if op == "read" else W
            held = held_items(table, txn)
            if item in held:
                continue  # avoid upgrade paths in this generic stream
            queued = any(t == txn for t, _ in waiters(table, item))
            if queued:
                continue  # one request per txn per item
            table.acquire(txn, item, mode)
            live_requests.setdefault(txn, set()).add(item)
    return table


def check_invariants(table):
    # Collect every item mentioned anywhere.
    items = set(table._items)
    for item in items:
        held = holders(table, item)
        queue = waiters(table, item)
        modes = list(held.values())
        # 1. Either one writer or any number of readers.
        if W in modes:
            assert len(modes) == 1, f"writer shares {item}: {held}"
        # 2. No waiter is compatible with the holders AND first in line
        #    (otherwise it should have been granted).
        if queue:
            first_txn, first_mode = queue[0]
            upgrade = first_txn in held
            if upgrade:
                assert len(held) > 1
            elif not held:
                raise AssertionError(
                    f"item {item} has waiters but no holders")
            else:
                compatible = (first_mode is R and all(m is R for m in modes))
                assert not compatible, (
                    f"head waiter {first_txn} compatible but not granted")
        # 3. A transaction appears at most once in the queue.
        queue_txns = [t for t, _ in queue]
        assert len(queue_txns) == len(set(queue_txns))


@given(ACTIONS)
@settings(max_examples=300, deadline=None)
def test_lock_table_invariants_hold(actions):
    table = apply_actions(actions)
    check_invariants(table)


@given(ACTIONS)
@settings(max_examples=200, deadline=None)
def test_release_everything_empties_table(actions):
    table = apply_actions(actions)
    for txn in range(6):
        table.release_all(txn)
    assert not table._items, "items remained after releasing every txn"


@given(ACTIONS)
@settings(max_examples=200, deadline=None)
def test_grants_returned_by_release_are_now_held(actions):
    table = apply_actions(actions)
    for txn in range(6):
        granted = table.release_all(txn)
        for grantee, item, mode in granted:
            assert table.holds(grantee, item, mode)
        check_invariants(table)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fifo_grant_order_per_item(data):
    """Waiters on one item are granted in queue order (readers batched)."""
    table = LockTable()
    table.acquire("holder", 0, W)
    n = data.draw(st.integers(min_value=1, max_value=8))
    modes = [data.draw(st.sampled_from([R, W]), label=f"mode{i}")
             for i in range(n)]
    for i, mode in enumerate(modes):
        assert table.acquire(f"t{i}", 0, mode).value == "waiting"
    granted = table.release_all("holder")
    # The grant is the longest compatible prefix of the queue.
    expected = []
    if modes[0] is W:
        expected = [("t0", 0, W)]
    else:
        for i, mode in enumerate(modes):
            if mode is W:
                break
            expected.append((f"t{i}", 0, R))
    assert granted == expected


# -- the wait index against a from-scratch scan ------------------------------

# Like ACTIONS, but upgrades are allowed (a held READ may request WRITE and
# queue at the head) and a transaction's queued requests can be dropped
# without releasing its locks, as a deadlock victim's are.
INDEXED_ACTIONS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.sampled_from(["read", "write", "write", "release", "drop"]),
        st.integers(min_value=0, max_value=3),
    ),
    max_size=80,
)


class ScanLockTable:
    """The lock table as it was before the wait index: ``release_all`` and
    ``drop_queued`` find a transaction's queued requests by rescanning every
    item. Kept here only as the oracle for grant order."""

    def __init__(self):
        self._items = {}  # item -> (holders OrderedDict, queue deque)
        self._held_by_txn = {}

    def acquire(self, txn, item, mode):
        holders, queue = self._items.setdefault(
            item, (OrderedDict(), deque()))
        held = self._held_by_txn.setdefault(txn, {})
        if item in held:
            if held[item] is W or mode is R:
                return LockRequestState.GRANTED
            if len(holders) == 1:
                holders[txn] = held[item] = W
                return LockRequestState.GRANTED
            queue.appendleft((txn, W))
            return LockRequestState.WAITING
        if not queue and (not holders or (
                mode is R and all(m is R for m in holders.values()))):
            holders[txn] = held[item] = mode
            return LockRequestState.GRANTED
        queue.append((txn, mode))
        return LockRequestState.WAITING

    def drop_queued(self, txn):
        granted = []
        for item, (holders, queue) in list(self._items.items()):
            if any(entry[0] == txn for entry in queue):
                kept = [entry for entry in queue if entry[0] != txn]
                queue.clear()
                queue.extend(kept)
                granted.extend(self._grant_from_queue(item))
        return granted

    def release_all(self, txn):
        granted = []
        for item in self._held_by_txn.pop(txn, {}):
            self._items[item][0].pop(txn, None)
            granted.extend(self._grant_from_queue(item))
        granted.extend(self.drop_queued(txn))
        return granted

    def _grant_from_queue(self, item):
        holders, queue = self._items[item]
        granted = []
        while queue:
            txn, mode = queue[0]
            if txn in holders:
                if len(holders) != 1:
                    break
                queue.popleft()
                holders[txn] = self._held_by_txn[txn][item] = W
                granted.append((txn, item, W))
                continue
            if holders and not (mode is R and all(
                    m is R for m in holders.values())):
                break
            queue.popleft()
            holders[txn] = mode
            self._held_by_txn.setdefault(txn, {})[item] = mode
            granted.append((txn, item, mode))
            if mode is W:
                break
        if not holders and not queue:
            del self._items[item]
        return granted


def check_wait_index(table):
    scanned = {}
    for item, lock in table._items.items():
        for txn, _mode in lock.queue:
            scanned.setdefault(txn, []).append(item)
    assert ({txn: sorted(items) for txn, items in table._queued_on.items()}
            == {txn: sorted(items) for txn, items in scanned.items()})
    assert table.total_waiters() == sum(
        len(lock.queue) for lock in table._items.values())


@given(INDEXED_ACTIONS)
@settings(max_examples=400, deadline=None)
def test_wait_index_and_grant_order_match_a_full_scan(actions):
    table, oracle = LockTable(), ScanLockTable()
    for txn, op, item in actions:
        if op == "release":
            assert table.release_all(txn) == oracle.release_all(txn)
        elif op == "drop":
            assert table.drop_queued(txn) == oracle.drop_queued(txn)
        elif any(t == txn for t, _ in waiters(table, item)):
            continue  # one request per txn per item
        else:
            mode = R if op == "read" else W
            assert (table.acquire(txn, item, mode)
                    is oracle.acquire(txn, item, mode))
        check_wait_index(table)
        assert list(table._items) == list(oracle._items)
        for item in table._items:
            held, queue = oracle._items[item]
            assert holders(table, item) == dict(held)
            assert waiters(table, item) == list(queue)
    for txn in range(6):
        assert table.release_all(txn) == oracle.release_all(txn)
        check_wait_index(table)
    assert not table._items and not table._queued_on
