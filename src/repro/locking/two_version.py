"""Two-version 2PL's lock table: s-2PL's table with a certify lock.

Three rules replace :class:`~repro.locking.lock_table.LockTable`'s: a read
conflicts only with a certify lock; a write conflicts with writes and
certify locks; a commit upgrades each written item from write to certify
(:meth:`TwoVersionLockTable.certify`), queued at the head, where it waits
only for the item's other readers. The rest is the base table's, so each
method touches only the items one transaction holds or queues on. Grants
come back in their items' first-request order, reads before a write.
"""

from collections import deque

from repro.locking.lock_table import LockRequestState, LockTable, _ItemLock
from repro.locking.modes import LockMode

READ, WRITE, CERTIFY = LockMode.READ, LockMode.WRITE, LockMode.CERTIFY
GRANTED, WAITING = LockRequestState.GRANTED, LockRequestState.WAITING


class _TwoVersionLock(_ItemLock):
    """Readers and at most one write or certify lock in ``holders``."""

    __slots__ = ()

    def certifier(self):
        """The transaction holding or awaiting the certify lock, or None."""
        if self.queue and self.queue[0][1] is CERTIFY:
            return self.queue[0][0]
        return next((txn for txn, held in self.holders.items()
                     if held is CERTIFY), None)

    def wait_edges(self):
        """A certify request waits for the readers, a read for the
        certifier, a write for the writer and the writes queued ahead;
        cached as the base table's are."""
        edges = self.edges
        if edges is None:
            holders = self.holders
            readers = frozenset(txn for txn, held in holders.items()
                                if held is READ)
            ahead = [txn for txn, held in holders.items() if held is not READ]
            certifier = frozenset((self.certifier(),))
            edges = self.edges = {}
            for txn, mode in self.queue:
                if mode is WRITE:
                    edges[txn] = frozenset(ahead)
                    ahead.append(txn)
                else:
                    edges[txn] = readers if mode is CERTIFY else certifier
        return edges


class TwoVersionLockTable(LockTable):
    """The lock table of two-version 2PL (see the module docstring)."""

    def __init__(self):
        super().__init__()
        self._rank = {}  # item -> rank of its first request, never dropped

    def acquire(self, txn, item, mode):
        """Request ``item`` (READ or WRITE, once per item) for ``txn``."""
        lock = self._items.get(item)
        if lock is None:
            lock = self._items[item] = _TwoVersionLock()
            self._rank.setdefault(item, len(self._rank))
        lock.edges = None
        if mode is READ:
            free = lock.certifier() is None
        else:
            free = not lock.queue and all(
                held is READ for held in lock.holders.values())
        if free:
            lock.holders[txn] = mode
            self._held_by_txn.setdefault(txn, {})[item] = mode
            return GRANTED
        lock.queue.append((txn, mode))
        self._queued_on.setdefault(txn, []).append(item)
        self._n_queued += 1
        return WAITING

    def certify(self, txn, items):
        """Upgrade ``txn``'s write lock on each of ``items`` to certify:
        granted where no one else reads the item, else queued at the
        head. Returns how many were queued."""
        held = self._held_by_txn.get(txn, {})
        queued = 0
        for item in items:
            if held.get(item) is WRITE:
                lock = self._items[item]
                lock.edges = None
                if len(lock.holders) == 1:
                    lock.holders[txn] = held[item] = CERTIFY
                    continue
                lock.queue.appendleft((txn, CERTIFY))
                self._queued_on.setdefault(txn, []).append(item)
                self._n_queued += 1
                queued += 1
        return queued

    def drop_queued(self, txn):
        """Remove ``txn``'s queued requests; a certifying victim's certify
        locks revert to the write locks it holds until its abort-release.
        Returns the newly granted (txn, item, mode) triples."""
        held = self._held_by_txn.get(txn, {})
        items = [item for item, mode in held.items() if mode is CERTIFY]
        for item in items:
            lock = self._items[item]
            lock.edges = None
            lock.holders[txn] = held[item] = WRITE
        for item in self._queued_on.pop(txn, ()):
            lock = self._items[item]
            lock.edges = None
            lock.queue = deque(entry for entry in lock.queue
                               if entry[0] != txn)
            self._n_queued -= 1
            items.append(item)
        return self._in_rank_order([
            grant for item in items
            for grant in self._grant_from_queue(item, self._items[item])])

    def release_all(self, txn):
        return self._in_rank_order(super().release_all(txn))

    def _in_rank_order(self, granted):
        if len(granted) > 1:
            granted.sort(key=lambda grant: self._rank[grant[1]])
        return granted

    def _grant_from_queue(self, item, lock):
        lock.edges = None
        queue, holders = lock.queue, lock.holders
        granted = []
        if queue and queue[0][1] is CERTIFY:
            if len(holders) == 1:  # the certifier's own write lock alone
                granted.append(queue.popleft())
        elif queue and lock.certifier() is None:
            # every queued read, then the first write if no one writes
            granted = [entry for entry in queue if entry[1] is READ]
            if granted:
                lock.queue = queue = deque(entry for entry in queue
                                           if entry[1] is WRITE)
            if queue and all(held is READ for held in holders.values()):
                granted.append(queue.popleft())
        for txn, mode in granted:
            waiting = self._queued_on[txn]
            if len(waiting) == 1:
                del self._queued_on[txn]
            else:
                waiting.remove(item)
            holders[txn] = self._held_by_txn.setdefault(txn, {})[item] = mode
        self._n_queued -= len(granted)
        if not holders and not queue:
            self._items.pop(item, None)
        return [(txn, item, mode) for txn, mode in granted]
