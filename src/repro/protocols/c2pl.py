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

from repro.locking.lock_table import LockRequestState
from repro.locking.modes import LockMode
from repro.protocols.messages import (
    AbortNotice,
    AbortRelease,
    CacheRecall,
    CacheRecallAck,
    CommitRelease,
    CONTROL_SIZE,
    DATA_ITEM_SIZE,
    LockRequest,
)
from repro.protocols.s2pl import S2PLClient, S2PLServer


class C2PLServer(S2PLServer):
    """s-2PL server extended with a cached-copy registry and callbacks."""

    def __init__(self, sim, config, store, wal, history):
        super().__init__(sim, config, store, wal, history)
        self._cached = {}           # item_id -> set(client_id)
        self._recall_waits = {}     # item_id -> {"txn": writer, "clients": set}
        self._busy_edges = {}       # (writer_txn, busy_txn) -> item_id
        self.callbacks_sent = 0
        self.cache_hits = 0         # server-visible proxy: grants avoided

    def stats(self):
        stats = super().stats()
        stats["callbacks_sent"] = self.callbacks_sent
        stats["cache_hits"] = self.cache_hits
        return stats

    # -- request handling ------------------------------------------------------

    def on_LockRequest(self, msg):
        if msg.txn_id in self._dead:
            return
        if msg.txn_id not in self._txns:
            self._txns[msg.txn_id] = msg.client_id
        state = self.lock_table.acquire(msg.txn_id, msg.item_id, msg.mode)
        if state is LockRequestState.WAITING:
            self._detect_and_resolve(msg.txn_id)
            return
        self._grant(msg.txn_id, msg.item_id, msg.mode)

    def _grant(self, txn_id, item_id, mode):
        # Cached-copy registration is CLIENT-driven (it rides the commit
        # release), never grant-driven: a grant-time registration can be
        # erased by a recall ack that is still in flight from the same
        # client, leaving an untracked — and eventually stale — copy.
        if mode is LockMode.WRITE:
            self._grant_write(txn_id, item_id)
        else:
            self._ship(txn_id, item_id, mode)

    def _grant_write(self, txn_id, item_id):
        """The table lock is held; recall foreign cached copies, then ship.

        The requester's own registration is left in place: its copy is
        either overwritten by the write or dropped by the client on abort,
        and an over-registration is harmless (a recall finds nothing).
        At a population site the writer's own client is recalled too —
        another local transaction may be reading the cached copy, and only
        the recall/busy machinery serialises against it. A closed-loop
        terminal runs one transaction at a time, so it has no such reader.
        """
        client_id = self._txns[txn_id]
        holders = set(self._cached.get(item_id, set()))
        if self.config.population is None:
            holders.discard(client_id)
        if not holders:
            self._ship(txn_id, item_id, LockMode.WRITE)
            return
        self._recall_waits[item_id] = {"txn": txn_id, "clients": set(holders)}
        for holder in holders:
            self.callbacks_sent += 1
            self.send(holder, CacheRecall(item_id=item_id), size=CONTROL_SIZE)

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
        if self.lock_table.holds(writer, msg.item_id, LockMode.WRITE):
            self._ship(writer, msg.item_id, LockMode.WRITE)

    # -- deadlock plumbing -------------------------------------------------------

    def _extra_wait_edges(self):
        extra = {}
        for writer, busy in self._busy_edges:
            # a population site's writer can pin its own copy
            if writer != busy:
                extra.setdefault(writer, set()).add(busy)
        return extra

    def _drop_busy_edges(self, writer):
        for key in [k for k in self._busy_edges if k[0] == writer]:
            del self._busy_edges[key]

    def _abort(self, txn_id, reason):
        # A victim may be a writer waiting on recalls: clear its recall
        # state so a late final ack does not ship to a dead transaction.
        for item_id in [i for i, p in self._recall_waits.items()
                        if p["txn"] == txn_id]:
            del self._recall_waits[item_id]
        self._drop_busy_edges(txn_id)
        for key in [k for k in self._busy_edges if k[1] == txn_id]:
            del self._busy_edges[key]
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
    """s-2PL client with a local cache of data items across transactions."""

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
        self._txn_used = {}         # txn_id -> set(item_id) used from cache
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
        self._cache.pop(msg.item_id, None)
        self.send(self.server_id,
                  CacheRecallAck(item_id=msg.item_id,
                                 client_id=self.client_id, final=True),
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
            self._cache.pop(item_id, None)
            self.send(self.server_id,
                      CacheRecallAck(item_id=item_id,
                                     client_id=self.client_id,
                                     final=True),
                      size=CONTROL_SIZE)

    # -- transaction execution ------------------------------------------------------

    def execute(self, txn):
        """Like s-2PL, but reads of cached items are local hits."""
        start_time = self.sim.now
        self._active[txn.txn_id] = txn
        self._txn_used[txn.txn_id] = set()
        updates = {}
        read_items = []
        fetched = []  # read misses cached during this transaction
        pending_cache = {}  # writes to cache at commit
        try:
            for op in txn.spec.operations:
                # A copy under a deferred recall is already promised to a
                # remote writer: new local transactions must not start
                # using it (they go to the server and queue instead).
                if (op.mode is LockMode.READ and op.item_id in self._cache
                        and self._cache[op.item_id][2]
                        and op.item_id not in self._deferred_recalls):
                    self.cache_hits += 1
                    self._txn_used[txn.txn_id].add(op.item_id)
                    version = self._cache[op.item_id][0]
                    yield self.sim.timeout(op.think_time)
                    notice = self._abort_flags.pop(txn.txn_id, None)
                    if notice is not None:
                        txn.abort(notice.reason)
                        break
                    txn.ops_done += 1
                    self.history.record_access(
                        txn.txn_id, op.item_id, op.mode, version,
                        self.sim.now)
                    continue
                if op.mode is LockMode.READ:
                    self.cache_misses += 1
                self.send(self.server_id,
                          LockRequest(txn_id=txn.txn_id, item_id=op.item_id,
                                      mode=op.mode, client_id=self.client_id),
                          size=CONTROL_SIZE)
                event = self.sim.event()
                self._grant_events[txn.txn_id] = (event, self.sim.now,
                                                  op.think_time)
                msg = yield event  # fires think_time after the grant
                if isinstance(msg, AbortNotice):
                    txn.abort(msg.reason)
                    break
                notice = self._abort_flags.pop(txn.txn_id, None)
                if notice is not None:
                    txn.abort(notice.reason)
                    break
                txn.ops_done += 1
                self._txn_used[txn.txn_id].add(op.item_id)
                if op.mode is LockMode.WRITE:
                    new_version = msg.version + 1
                    updates[op.item_id] = f"t{txn.txn_id}v{new_version}"
                    # The new value enters the cache only at commit: a
                    # concurrent local transaction (population sites) must
                    # never cache-hit an uncommitted write.
                    pending_cache[op.item_id] = (new_version,
                                                 updates[op.item_id])
                    self.history.record_access(
                        txn.txn_id, op.item_id, op.mode, new_version,
                        self.sim.now)
                else:
                    read_items.append(op.item_id)
                    fetched.append(op.item_id)
                    self._cache[op.item_id] = [msg.version, msg.value, False]
                    self.history.record_access(
                        txn.txn_id, op.item_id, op.mode, msg.version,
                        self.sim.now)
            else:
                txn.commit()
        finally:
            self._active.pop(txn.txn_id, None)
            self._grant_events.pop(txn.txn_id, None)
            self._abort_flags.pop(txn.txn_id, None)
        end_time = self.sim.now
        if txn.status.value == "committed":
            self.history.record_commit(txn.txn_id, time=self.sim.now)
            for item_id, (version, value) in pending_cache.items():
                self._cache[item_id] = [version, value, True]
            for item_id in fetched:
                entry = self._cache.get(item_id)
                if entry is not None:
                    entry[2] = True  # registration rides the commit release
            self.send(self.server_id,
                      CommitRelease(txn_id=txn.txn_id, updates=updates,
                                    read_items=tuple(read_items)),
                      size=CONTROL_SIZE
                      + len(updates) * DATA_ITEM_SIZE)
        else:
            self.history.record_abort(txn.txn_id)
            # Copies fetched during this transaction were never registered
            # at the server (the registration rides the commit release),
            # so they go; uncommitted writes never entered the cache.
            for item_id in fetched:
                self._cache.pop(item_id, None)
            self.send(self.server_id, AbortRelease(txn_id=txn.txn_id),
                      size=CONTROL_SIZE)
        self._flush_deferred_recalls(txn.txn_id)
        return self.make_outcome(txn, start_time, end_time)
