"""Caching 2PL (c-2PL): s-2PL with client caching across transactions.

The paper (§3.1) describes c-2PL as the s-2PL variation "that allows
caching of locks across transaction boundaries", and names comparing
against more caching protocols as future work. This implementation follows
the callback-locking family the paper cites [1, 5, 13]:

* Clients retain data items and their read permission after commit. A read
  of a cached item is a pure local hit — zero network rounds.
* Writes always go to the server. Before shipping the item to a writer,
  the server *recalls* every cached copy at other clients. A client whose
  current transaction has used the copy defers the drop to its commit and
  tells the server which transaction is responsible, so callback waits
  feed the same wait-for-graph deadlock detection as lock waits.
* Consistency: a cached copy can never be stale, because every update is
  preceded by recalling all copies.
"""

from repro.locking.modes import LockMode
from repro.protocols.messages import (
    CacheRecall,
    CacheRecallAck,
    CONTROL_SIZE,
)
from repro.protocols.s2pl import S2PLClient, S2PLServer
from repro.protocols.transaction import TxnStatus

READ, WRITE = LockMode.READ, LockMode.WRITE
COMMITTED = TxnStatus.COMMITTED


class C2PLServer(S2PLServer):
    """s-2PL server extended with a cached-copy registry and callbacks."""

    def __init__(self, sim, config, store, history):
        super().__init__(sim, config, store, history)
        self._cached = {}           # item_id -> set(client_id)
        self._recall_waits = {}     # item_id -> {"txn": writer, "clients": set}
        self._busy_edges = {}       # (writer_txn, busy_txn) -> item_id
        self.callbacks_sent = 0

    def stats(self):
        # (a cache hit never reaches the server: the clients count them)
        stats = super().stats()
        stats["callbacks_sent"] = self.callbacks_sent
        return stats

    # -- recalls ----------------------------------------------------------------

    def _ship(self, txn_id, item_id, mode, vote=False):
        """Ship a granted item; a write first recalls the other clients'
        cached copies and ships once the last is given back (the writer's
        own copy is overwritten by the write or dropped on abort). At a
        population site the writer's own client is recalled too: another
        local transaction may be reading the copy. Registration rides the
        commit release, never a grant: a grant-time registration can be
        erased by a recall ack still in flight from the same client,
        leaving an untracked — and eventually stale — copy."""
        if mode is WRITE:
            holders = set(self._cached.get(item_id, set()))
            if self.config.population is None:
                holders.discard(self._txns[txn_id])
            if holders:
                self._recall_waits[item_id] = {"txn": txn_id,
                                               "clients": set(holders)}
                for holder in holders:
                    self.callbacks_sent += 1
                    self.send(holder, CacheRecall(item_id=item_id),
                              size=CONTROL_SIZE)
                return
        super()._ship(txn_id, item_id, mode, vote)

    def on_CacheRecallAck(self, msg):
        if not msg.final:
            # Busy: the copy is pinned by a running transaction. Feed the
            # wait-for graph so callback deadlocks are caught.
            pending = self._recall_waits.get(msg.item_id)
            if pending is not None and msg.busy_txn is not None:
                self._busy_edges[(pending["txn"], msg.busy_txn)] = msg.item_id
                self._detect_and_resolve(pending["txn"])
            return
        cached = self._cached.get(msg.item_id)
        if cached is not None:
            cached.discard(msg.client_id)
            if not cached:
                self._cached.pop(msg.item_id, None)
        pending = self._recall_waits.get(msg.item_id)
        if pending is None:
            return
        pending["clients"].discard(msg.client_id)
        if pending["clients"]:
            return
        del self._recall_waits[msg.item_id]
        writer = pending["txn"]
        self._drop_busy_edges(writer)
        if writer in self._dead or writer not in self._txns:
            return  # the writer lost a deadlock while waiting for recalls
        if self.lock_table.holds(writer, msg.item_id, WRITE):
            super()._ship(writer, msg.item_id, WRITE)

    # -- deadlock plumbing -------------------------------------------------------

    def _waits_for(self, txn):
        # a population site's writer can pin its own copy
        busy = [pinner for writer, pinner in self._busy_edges
                if writer == txn != pinner]
        blockers = super()._waits_for(txn)
        return blockers.union(busy) if busy else blockers

    def _can_be_waited_on(self, txn):
        return super()._can_be_waited_on(txn) or any(
            pinner == txn != writer for writer, pinner in self._busy_edges)

    def _drop_busy_edges(self, writer):
        for key in [k for k in self._busy_edges if k[0] == writer]:
            del self._busy_edges[key]

    def _abort(self, txn_id, reason):
        # A victim may be a writer waiting on recalls: clear its recall
        # state so a late final ack does not ship to a dead transaction.
        for item_id in [i for i, p in self._recall_waits.items()
                        if p["txn"] == txn_id]:
            del self._recall_waits[item_id]
        self._busy_edges = {edge: item_id for edge, item_id
                            in self._busy_edges.items() if txn_id not in edge}
        super()._abort(txn_id, reason)

    def _finish(self, txn_id):
        self._drop_busy_edges(txn_id)
        super()._finish(txn_id)

    def on_CommitRelease(self, msg):
        # The committing client keeps (now caches) everything it touched.
        # Register BEFORE releasing the locks: a writer granted from the
        # queue by this very release must see the fresh registration, or
        # it would skip the recall and leave a stale copy behind.
        client_id = self._txns.get(msg.txn_id)
        if client_id is not None and msg.txn_id not in self._dead:
            for item_id in list(msg.updates) + list(msg.read_items):
                self._cached.setdefault(item_id, set()).add(client_id)
        super().on_CommitRelease(msg)


class C2PLClient(S2PLClient):
    """s-2PL client with a local cache of data items across transactions.

    It runs the s-2PL loop: ``_local_read`` serves a read of a published
    copy locally (its think time, no round), ``on_DataShip`` notes each
    grant, and ``_after_release`` publishes or drops copies and gives back
    deferred recalls once the commit or abort release is sent.
    """

    def __init__(self, sim, client_id, config, history):
        super().__init__(sim, client_id, config, history)
        # item_id -> [version, value, published]. "published" flips True
        # when the fetching transaction commits (which is also when the
        # copy gets registered at the server); only published copies are
        # cache-hittable — a copy fetched by a still-active sibling
        # transaction (population sites) is protected by that sibling's
        # server lock only until the sibling ends, which is not long
        # enough for a hitchhiking reader.
        self._cache = {}
        self._deferred_recalls = set()
        self._txn_used = {}         # txn_id -> set(item_id) in use
        # txn_id -> the DataShip it resumes from when its think time ends
        self._granted = {}
        self._written = {}          # txn_id -> {item_id: new version}
        self.cache_hits = 0
        self.cache_misses = 0

    # -- cache plumbing -----------------------------------------------------------

    def on_CacheRecall(self, msg):
        users = [txn_id for txn_id, used in self._txn_used.items()
                 if msg.item_id in used]
        if users:
            self._deferred_recalls.add(msg.item_id)
            # One busy ack per pinning transaction (a population site can
            # have several): the server needs a wait-for edge to each, or
            # the edge to the first points at nobody once that one commits
            # and a cycle through the others goes undetected.
            for busy_txn in users:
                self.send(self.server_id,
                          CacheRecallAck(item_id=msg.item_id,
                                         client_id=self.client_id,
                                         final=False, busy_txn=busy_txn),
                          size=CONTROL_SIZE)
            return
        self._give_back(msg.item_id)

    def _give_back(self, item_id):
        self._cache.pop(item_id, None)
        self.send(self.server_id,
                  CacheRecallAck(item_id=item_id, client_id=self.client_id,
                                 final=True),
                  size=CONTROL_SIZE)

    def _flush_deferred_recalls(self, txn_id):
        used = self._txn_used.pop(txn_id, set())
        for item_id in list(self._deferred_recalls):
            if item_id not in used:
                continue
            # At a population site another local transaction may still be
            # using the copy; the drop waits for the last user.
            if any(item_id in other for other in self._txn_used.values()):
                continue
            self._deferred_recalls.discard(item_id)
            self._give_back(item_id)

    # -- hooks on the s-2PL loop -------------------------------------------------

    def on_DataShip(self, msg):
        if msg.txn_id in self._grant_events:
            self._granted[msg.txn_id] = msg
        super().on_DataShip(msg)

    def _take_grant(self, txn_id):
        """Take in the grant ``txn_id`` resumed from: the item is in use, a
        read's copy enters the cache unpublished, and a write's new version
        waits for the commit (a concurrent local transaction must never
        hit an uncommitted write). Taken when the think ends, where the
        loop records the operation, not on arrival: a grant that an abort
        notice overtakes during the think is never used."""
        msg = self._granted.pop(txn_id, None)
        if msg is None:
            return
        self._txn_used[txn_id].add(msg.item_id)
        if msg.mode is WRITE:
            self._written.setdefault(txn_id, {})[msg.item_id] = (
                msg.version + 1)
        else:
            self._cache[msg.item_id] = [msg.version, msg.value, False]

    def _local_read(self, txn_id, op):
        """The version a published cached copy serves a read with, or None
        (the operation goes to the server). A copy under a deferred recall
        is already promised to a remote writer: new local transactions
        must not start using it (they go to the server and queue)."""
        used = self._txn_used.setdefault(txn_id, set())
        self._take_grant(txn_id)
        if op.mode is READ:
            entry = self._cache.get(op.item_id)
            if (entry is not None and entry[2]
                    and op.item_id not in self._deferred_recalls):
                self.cache_hits += 1
                used.add(op.item_id)
                return entry[0]
            self.cache_misses += 1
        return None

    def _after_release(self, txn, updates, read_items):
        """A commit publishes the transaction's copies (their registration
        rode the release); an abort drops the copies it fetched, never
        registered, its uncommitted writes having never entered the cache.
        Then the deferred recalls of what it used are given back."""
        txn_id = txn.txn_id
        if txn.status is COMMITTED:
            self._take_grant(txn_id)
            written = self._written.pop(txn_id, {})
            for item_id, value in updates.items():
                self._cache[item_id] = [written[item_id], value, True]
            for item_id in read_items:
                entry = self._cache.get(item_id)
                if entry is not None:
                    entry[2] = True
        else:
            self._granted.pop(txn_id, None)
            self._written.pop(txn_id, None)
            for item_id in read_items:
                self._cache.pop(item_id, None)
        self._flush_deferred_recalls(txn_id)
