"""Two-version (two-copy) 2PL: the §3.4 comparison point.

The paper remarks that with MR1W "the g-2PL protocol ... behaves similar
to the two-copy version s-2PL protocol [21] which allows more concurrency
than the standard s-2PL protocol". This module implements that comparator
so the remark can be measured (ablation A7).

Two-version 2PL (Bernstein/Hadzilacos/Goodman, ch. 5) at the data server:

* Readers take **read locks** and always read the *committed* copy.
* A writer takes a **write lock** (one writer at a time, writers queue),
  receives the committed copy, and prepares a new version *concurrently
  with active readers* — read and write locks do not conflict.
* Commit is a server-side protocol step: the client sends a commit
  *request* and waits for the ack. The server must **certify** every
  written item — convert the write lock into a certify lock, which
  conflicts with read locks — so the commit waits until all readers of
  the written items have released. Certify waits are ordinary waits: they
  feed the wait-for graph and can deadlock (two committers each reading
  what the other wrote), in which case one commit request is refused and
  the transaction aborts.
* Only after certification are the new versions installed, all locks
  (including the transaction's read locks) released, and the ack sent.

So reads never wait for writes; writes execute concurrently with reads;
writers' *commits* serialize behind the readers — MR1W's "execute now,
release updates after the readers" expressed at the server instead of on
a forward list. The client-observed response time includes the commit
round trip (the price of server-certified commits).
"""

from collections import OrderedDict, defaultdict, deque

from repro.locking.modes import LockMode
from repro.locking.waitfor import find_cycle_through, name_cycle
from repro.protocols.base import ProtocolServer
from repro.protocols.messages import (
    AbortNotice,
    CommitAck,
    CommitRelease,
    CONTROL_SIZE,
    DATA_ITEM_SIZE,
    DataShip,
)
from repro.protocols.s2pl import S2PLClient


class _ItemState:
    """Two-version lock state of one item."""

    __slots__ = ("readers", "writer", "certifying", "queue")

    def __init__(self):
        self.readers = OrderedDict()   # txn -> True (insertion order)
        self.writer = None             # txn holding the write lock
        self.certifying = None         # txn whose commit holds the certify lock
        self.queue = deque()           # (txn, mode) waiting

    @property
    def write_locked(self):
        return self.writer is not None or self.certifying is not None


class TwoVersionServer(ProtocolServer):
    """The data server running two-version 2PL with certified commits."""

    def __init__(self, sim, config, store, history):
        super().__init__(sim, config, store, history)
        self._items = {}
        self._txns = {}     # txn_id -> client_id
        self._dead = set()
        # txn -> {"updates": dict, "waiting_on": set(item_id)}
        self._certifications = {}
        self.deadlocks_found = 0
        self.certify_waits = 0

    def stats(self):
        stats = super().stats()
        stats["deadlocks_found"] = self.deadlocks_found
        return stats

    def _item(self, item_id):
        state = self._items.get(item_id)
        if state is None:
            state = self._items[item_id] = _ItemState()
        return state

    # -- message handlers ----------------------------------------------------

    def on_LockRequest(self, msg):
        if msg.txn_id in self._dead:
            return
        self._txns.setdefault(msg.txn_id, msg.client_id)
        state = self._item(msg.item_id)
        if msg.mode is LockMode.READ:
            # Reads conflict only with the certify lock. (They may pass
            # queued writers: read and write locks are compatible in 2V.)
            if state.certifying is None:
                state.readers[msg.txn_id] = True
                self._ship(msg.txn_id, msg.item_id, LockMode.READ)
                return
            state.queue.append((msg.txn_id, LockMode.READ))
            self._detect(msg.txn_id)
            return
        if not state.write_locked and not any(
                mode is LockMode.WRITE for _t, mode in state.queue):
            state.writer = msg.txn_id
            self._ship(msg.txn_id, msg.item_id, LockMode.WRITE)
        else:
            state.queue.append((msg.txn_id, LockMode.WRITE))
            self._detect(msg.txn_id)

    def on_CommitRelease(self, msg):
        """A commit *request*: certify the written items, then finalise."""
        if msg.txn_id in self._dead:
            return
        waiting_on = set()
        for item_id in msg.updates:
            state = self._item(item_id)
            if state.writer != msg.txn_id:
                continue  # defensive
            state.writer = None
            state.certifying = msg.txn_id
            if any(txn != msg.txn_id for txn in state.readers):
                waiting_on.add(item_id)
        self._certifications[msg.txn_id] = {
            "updates": dict(msg.updates), "waiting_on": waiting_on}
        if waiting_on:
            self.certify_waits += 1
            self._detect(msg.txn_id)
            if msg.txn_id in self._dead:
                return
        self._retry_certifications()

    def on_AbortRelease(self, msg):
        self._dead.discard(msg.txn_id)
        self._release_everything(msg.txn_id)

    # -- internals -----------------------------------------------------------

    def _ship(self, txn_id, item_id, mode):
        client_id = self._txns[txn_id]
        item = self.store.read(item_id)
        env = self.send(client_id,
                        DataShip(txn_id=txn_id, item_id=item_id,
                                 version=item.version, value=item.value,
                                 mode=mode),
                        size=self.data_ship_size())
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("lock.grant", txn_id, item_id, mode.name)
            tracer.round_charge(txn_id, "grant")
            tracer.wire_charge(txn_id, env)

    def _finalise_commit(self, txn_id, updates):
        self.install_updates(updates)
        if self.fault_mode:
            # The certifying server is the commit point. On a perfect
            # network the ack reaches the client before anyone can use the
            # released locks, so the client's stamp serves; under message
            # faults a retransmitted ack can arrive after the next writer's
            # access, and only a stamp taken here keeps the history strict.
            self.history.record_commit(txn_id, time=self.sim.now)
        client_id = self._txns.get(txn_id)
        self._release_everything(txn_id)
        if client_id is not None:
            env = self.send(client_id, CommitAck(txn_id=txn_id),
                            size=CONTROL_SIZE)
            tracer = self.sim.tracer
            if tracer is not None:
                # the certify round's second half: coordination wire
                tracer.round_charge(txn_id, "commit_ack")
                tracer.wire_charge(txn_id, env, phase="commit")

    def _release_everything(self, txn_id):
        self._txns.pop(txn_id, None)
        self._certifications.pop(txn_id, None)
        for item_id, state in list(self._items.items()):
            state.readers.pop(txn_id, None)
            if state.writer == txn_id:
                state.writer = None
            if state.certifying == txn_id:
                state.certifying = None
            if state.queue:
                state.queue = deque(entry for entry in state.queue
                                    if entry[0] != txn_id)
        self._drain_queues()
        self._retry_certifications()

    def _drain_queues(self):
        for item_id, state in list(self._items.items()):
            # Reads wait ONLY on the certify lock (they are compatible with
            # write locks), so every queued read is grantable the moment no
            # certification holds — they must not sit behind queued writers,
            # or the queue manufactures waits the wait-for graph does not
            # model (an undetectable stall).
            if state.certifying is None and state.queue:
                reads = [txn for txn, mode in state.queue
                         if mode is LockMode.READ]
                if reads:
                    state.queue = deque(
                        (txn, mode) for txn, mode in state.queue
                        if mode is not LockMode.READ)
                    for txn_id in reads:
                        state.readers[txn_id] = True
                        self._ship(txn_id, item_id, LockMode.READ)
            while state.queue and not state.write_locked:
                txn_id, _mode = state.queue.popleft()
                state.writer = txn_id
                self._ship(txn_id, item_id, LockMode.WRITE)

    def _retry_certifications(self):
        progressed = True
        while progressed:
            progressed = False
            for txn_id in list(self._certifications):
                pending = self._certifications.get(txn_id)
                if pending is None:
                    continue
                still = {item_id for item_id in pending["waiting_on"]
                         if any(txn != txn_id
                                for txn in self._item(item_id).readers)}
                if still:
                    pending["waiting_on"] = still
                    continue
                del self._certifications[txn_id]
                self._finalise_commit(txn_id, pending["updates"])
                progressed = True

    # -- deadlock handling -----------------------------------------------------

    def _wait_edges(self):
        """The wait-for graph as ``{waiter: set(blockers)}`` (an empty set
        for a transaction that waits for nothing), never a waiter in its
        own set: a queued request waits for the item's write/certify lock
        holder and (a write) for the writes queued ahead of it, a pending
        certification for the other readers of what it wrote."""
        out = defaultdict(set)
        for state in self._items.values():
            write_ahead = []
            if state.certifying is not None:
                write_ahead.append(state.certifying)
            if state.writer is not None:
                write_ahead.append(state.writer)
            cert_ahead = ([state.certifying]
                          if state.certifying is not None else [])
            for txn_id, mode in state.queue:
                if mode is LockMode.WRITE:
                    out[txn_id].update(write_ahead)
                    write_ahead = write_ahead + [txn_id]
                else:
                    out[txn_id].update(cert_ahead)
        for txn_id, pending in self._certifications.items():
            for item_id in pending["waiting_on"]:
                out[txn_id].update(self._item(item_id).readers)
        for txn_id, blockers in out.items():
            blockers.discard(txn_id)
        return out

    def _can_be_waited_on(self, txn_id):
        """Could any wait edge of :meth:`_wait_edges` point at ``txn_id``?
        False is exact; True may overstate.

        Edges run from a queued request to the item's write/certify lock
        holder and to write requests queued ahead of it, and from a
        pending certification to the other readers of what it wrote.
        """
        for pending_txn, pending in self._certifications.items():
            if pending_txn != txn_id and any(
                    txn_id in self._items[item_id].readers
                    for item_id in pending["waiting_on"]):
                return True
        for state in self._items.values():
            queue = state.queue
            if queue and (txn_id in (state.writer, state.certifying) or (
                    queue[-1][0] != txn_id
                    and any(txn == txn_id for txn, _mode in queue))):
                return True
        return False

    def _detect(self, requester):
        """Abort ``requester`` if its new wait closes a cycle.

        Only cycles through the requester are looked for, and the edges
        are not even collected when nothing can be waiting on it (a cycle
        through a node needs an edge into it) — the same exact prune as
        s-2PL's. The walk is unordered: the victim is the requester
        whichever cycle it closed; only a traced deadlock pays for naming
        it.
        """
        if not self._can_be_waited_on(requester):
            return
        blockers = self._wait_edges().__getitem__
        if find_cycle_through(requester, blockers) is None:
            return
        self.deadlocks_found += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("lock.deadlock", requester,
                       len(set(name_cycle(requester, blockers))))
        self._abort(requester, reason="deadlock")

    def _abort(self, txn_id, reason):
        client_id = self._txns.get(txn_id)
        if client_id is None or txn_id in self._dead:
            return
        self._dead.add(txn_id)
        self.aborts_initiated += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("txn.abort", txn_id, reason)
        # Wait edges vanish now: queued requests and any pending
        # certification of the victim are dropped (the certify locks it
        # took revert so others can progress); held read/write locks go
        # when the client's abort-release arrives.
        pending = self._certifications.pop(txn_id, None)
        if pending is not None:
            # Certify locks revert to plain write locks, still held by the
            # victim until its abort-release arrives (symmetric rollback).
            for item_id in pending["updates"]:
                state = self._item(item_id)
                if state.certifying == txn_id:
                    state.certifying = None
                    state.writer = txn_id
        for state in self._items.values():
            if state.queue:
                state.queue = deque(entry for entry in state.queue
                                    if entry[0] != txn_id)
        self._drain_queues()
        self._retry_certifications()
        env = self.send(client_id, AbortNotice(txn_id=txn_id, reason=reason),
                        size=CONTROL_SIZE)
        if tracer is not None:
            # the victim waits on a lock or its certification until the
            # notice lands: abort-resolution wire, as for s-2PL
            tracer.wire_charge(txn_id, env, phase="abort")


class TwoVersionClient(S2PLClient):
    """Client side: the s-2PL loop, its commit a certify round trip.

    After the last operation ``_commit_round`` sends the commit request
    and waits for the server's ack (certification may refuse it with an
    abort). The history commit is recorded when the ack lands, so the
    validator sees exactly what the server decided.
    """

    def on_CommitAck(self, msg):
        if msg.txn_id not in self._active:
            return
        pending = self._grant_events.pop(msg.txn_id, None)
        if pending is not None:
            pending[0].succeed(msg)

    def _commit_round(self, txn, updates):
        txn_id = txn.txn_id
        env = self.send(self.server_id,
                        CommitRelease(txn_id=txn_id, updates=updates,
                                      read_items=()),
                        size=CONTROL_SIZE + len(updates) * DATA_ITEM_SIZE)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.round_charge(txn_id, "commit")
            tracer.wire_charge(txn_id, env, phase="commit")
        event = self.sim.event()
        # (a grant wait's shape; only the event is ever used)
        self._grant_events[txn_id] = (event, self.sim.now, 0.0)
        msg = yield event
        if isinstance(msg, AbortNotice):
            txn.abort(msg.reason)
            return
        txn.commit()
        if not self.fault_mode:  # else stamped by the certifying server
            self.history.record_commit(txn_id, time=self.sim.now)
