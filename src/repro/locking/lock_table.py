"""The server's lock table: per-item holders and FIFO wait queues."""

import enum
from collections import OrderedDict, deque

from repro.locking.modes import LockMode


class LockRequestState(enum.Enum):
    """Outcome of an acquire call."""

    GRANTED = "granted"
    WAITING = "waiting"


READ, WRITE = LockMode.READ, LockMode.WRITE
GRANTED, WAITING = LockRequestState.GRANTED, LockRequestState.WAITING


class _ItemLock:
    """Lock state of a single data item."""

    __slots__ = ("holders", "queue", "edges")

    def __init__(self):
        # txn -> mode for current holders (all READ, or one WRITE)
        self.holders = OrderedDict()
        # FIFO of (txn, mode) waiting
        self.queue = deque()
        # cached wait_edges(); None whenever holders or queue changed
        self.edges = None

    def wait_edges(self):
        """``waiter -> frozenset(blockers)`` for every queued request: the
        holders and *earlier-queued* requests it conflicts with (those are
        granted first under FIFO), never itself (an upgrader does not wait
        for its own read lock). The one place a queue is scanned for wait
        edges; the map is cached until the lock changes and shared with
        every reader, so it and its sets are never mutated.
        """
        edges = self.edges
        if edges is None:
            holders = self.holders
            ahead = list(holders)  # a WRITE conflicts with all ahead,
            writers = [txn for txn, held in holders.items()
                       if held is WRITE]  # a READ with the writers
            edges = self.edges = {}
            for txn, mode in self.queue:
                if mode is WRITE:
                    blockers = frozenset(ahead)
                    edges[txn] = (blockers - {txn} if txn in holders
                                  else blockers)
                    writers.append(txn)
                else:
                    edges[txn] = frozenset(writers)
                ahead.append(txn)
        return edges

    def compatible(self, mode, requester):
        if not self.holders:
            return True
        if requester in self.holders:
            # Upgrade/re-request handled by the caller.
            raise AssertionError("requester already holds this lock")
        # holders are all READ or one WRITE
        return mode is READ and WRITE not in self.holders.values()


class LockTable:
    """Shared/exclusive lock table with FIFO granting.

    Grant discipline: a request is granted immediately iff it is compatible
    with all current holders *and* no conflicting request is already queued
    (no reader overtaking — prevents writer starvation and matches a strict
    FIFO server queue). On release, the longest compatible prefix of the
    queue is granted, so a run of readers at the head is granted together.

    A wait index (txn -> items it is queued on) is kept current at every
    queue change, so release, drop and deadlock detection touch only the
    queues a transaction sits in; each item caches its wait edges
    (:meth:`_ItemLock.wait_edges`), reset by the four methods below that
    change a queue or a holder set, so detection rescans only what
    changed.
    """

    def __init__(self):
        self._items = {}
        self._held_by_txn = {}
        self._queued_on = {}  # txn -> [item per queued request]
        self._n_queued = 0

    def _item(self, item):
        lock = self._items.get(item)
        if lock is None:
            lock = self._items[item] = _ItemLock()
        return lock

    # -- queries -------------------------------------------------------------

    def total_waiters(self):
        """Total queued requests across all items (a contention gauge)."""
        return self._n_queued

    def holds(self, txn, item, mode=None):
        """Does ``txn`` hold ``item`` (in ``mode``, if given)?"""
        held = self._held_by_txn.get(txn, {})
        if item not in held:
            return False
        return mode is None or held[item] is mode

    def waits_for(self, txn):
        """Every transaction a queued request of ``txn`` waits for (its
        wait-for successors), ``txn`` itself excluded."""
        items = self._queued_on.get(txn, ())
        if len(items) == 1:
            return self._items[items[0]].wait_edges()[txn]
        return frozenset().union(
            *[self._items[item].wait_edges()[txn] for item in items])

    def wait_edges(self):
        """The cached wait-edge map of every item with a queue, in table
        order — their union is this table's wait-for graph."""
        return [lock.wait_edges()
                for lock in self._items.values() if lock.queue]

    def waiting(self):
        """The transactions with a queued request (a live view)."""
        return self._queued_on.keys()

    def can_be_waited_on(self, txn):
        """Could any queued request be waiting for ``txn``? That needs a
        request queued on an item ``txn`` holds, or behind one of its own.
        False is exact (given one queued request per transaction per item,
        all any protocol issues); True may overstate (no conflict needed).
        """
        items = self._items
        for item in self._held_by_txn.get(txn, ()):
            if items[item].queue:
                return True
        for item in self._queued_on.get(txn, ()):
            if items[item].queue[-1][0] != txn:
                return True
        return False

    # -- state changes -------------------------------------------------------

    def acquire(self, txn, item, mode):
        """Request ``item`` in ``mode`` for ``txn``.

        Returns :class:`LockRequestState`. Re-requesting a held item in the
        same or weaker mode grants immediately; a READ→WRITE upgrade grants
        iff ``txn`` is the only holder, otherwise it queues (at the front,
        since the upgrade logically precedes every queued request).
        """
        lock = self._item(item)
        lock.edges = None
        held = self._held_by_txn.setdefault(txn, {})
        if item in held:
            if held[item] is WRITE or mode is READ:
                return GRANTED
            if len(lock.holders) == 1:  # sole reader upgrading
                lock.holders[txn] = WRITE
                held[item] = WRITE
                return GRANTED
            lock.queue.appendleft((txn, WRITE))
        elif not lock.queue and lock.compatible(mode, txn):
            lock.holders[txn] = mode
            held[item] = mode
            return GRANTED
        else:
            lock.queue.append((txn, mode))
        self._queued_on.setdefault(txn, []).append(item)
        self._n_queued += 1
        return WAITING

    def drop_queued(self, txn):
        """Remove ``txn``'s queued (not yet granted) requests everywhere.

        Used when a waiting transaction is chosen as a deadlock victim: its
        wait edges disappear immediately, while its *held* locks are only
        released when its client's abort-release arrives. Returns newly
        granted (txn, item, mode) triples (dropping a queued writer can
        unblock readers behind it).
        """
        granted = []
        items = self._queued_on.pop(txn, ())
        if len(items) > 1:
            # Grants come back in table order, whatever order txn queued in.
            queued = set(items)
            items = [item for item in self._items if item in queued]
        for item in items:
            lock = self._items[item]
            lock.edges = None
            before = len(lock.queue)
            lock.queue = deque(
                entry for entry in lock.queue if entry[0] != txn)
            self._n_queued -= before - len(lock.queue)
            granted.extend(self._grant_from_queue(item, lock))
        return granted

    def release_all(self, txn):
        """Release every lock held by ``txn`` and drop its queued requests.

        Returns the list of newly granted (txn, item, mode) triples, in
        grant order.
        """
        granted = []
        for item in self._held_by_txn.pop(txn, ()):
            lock = self._items[item]
            lock.edges = None
            lock.holders.pop(txn, None)
            granted.extend(self._grant_from_queue(item, lock))
        granted.extend(self.drop_queued(txn))
        return granted

    def _grant_from_queue(self, item, lock):
        granted = []
        lock.edges = None
        queue, holders = lock.queue, lock.holders
        # Holders are all READ or one WRITE, and the loop below only adds
        # readers to readers, so one look at them serves every iteration.
        shared = WRITE not in holders.values()
        while queue:
            txn, mode = queue[0]
            upgrade = txn in holders
            if upgrade:
                # READ→WRITE upgrade waiting at the head.
                if len(holders) != 1:
                    break
                shared = False
            elif holders and not (shared and mode is READ):
                break
            queue.popleft()
            waiting = self._queued_on[txn]
            if len(waiting) == 1:
                del self._queued_on[txn]
            else:
                waiting.remove(item)
            self._n_queued -= 1
            holders[txn] = mode
            self._held_by_txn.setdefault(txn, {})[item] = mode
            granted.append((txn, item, mode))
            if mode is WRITE and not upgrade:
                break
        if not holders and not queue:
            self._items.pop(item, None)
        return granted

    def __repr__(self):
        active = sum(1 for lock in self._items.values() if lock.holders)
        return (f"<LockTable {active} held items, "
                f"{self._n_queued} queued requests>")
