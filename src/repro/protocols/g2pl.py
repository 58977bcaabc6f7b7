"""Group two-phase locking (g-2PL): the paper's contribution (§3.2–3.4).

Mechanics implemented here:

* **Collection windows and forward lists** — while a data item is away from
  the server, incoming lock requests collect in the item's window. When the
  item comes home the window is frozen into a forward list (FL): maximal
  runs of readers become read groups, and the item is shipped to the first
  entry together with the FL. Each client forwards the item to its FL
  successor when its transaction terminates; the last entry returns the
  item to the server, which immediately dispatches the next window. The
  release of one client and the grant to the next ride the same message,
  saving a round per handoff.

* **Deadlock avoidance** — a global precedence DAG orders live
  transactions. Window requests are reorderable, so freezing orders them
  by a linear extension of the DAG (never aborts). What can conflict is a
  *fixed* constraint: members of an already-dispatched chain must precede
  any new request for that item. If such an edge would close a cycle the
  opposite order is already frozen on some other item, the deadlock is
  unavoidable, and the requester is aborted (the paper's "offending
  transactions are aborted"). Requests within one window never deadlock —
  this is how the reordering "within a collection window" avoids deadlocks
  without predeclaration or starvation.

* **MR1W** — the writer that follows a read group is shipped the item at
  the same time as the readers and executes concurrently, but its hold is
  not forwarded until every reader's release has arrived. Without MR1W the
  writer receives the item only via the readers' releases (which then carry
  the data).

* **Read-only optimization** (future work in the paper, `expand_read_groups`)
  — a read request for an in-flight item whose chain is writer-free joins
  the circulating read group directly: the server still holds the current
  version (nobody is writing), so it ships its own copy and counts one more
  return. This eliminates read-only dependencies across windows.

* **Forward-list ordering disciplines** (§6 future work) — FIFO (default),
  readers-first, writers-first, applied as the tiebreak key of the linear
  extension, so precedence constraints always win.

One server is the degenerate case of N: handed a ``shard_map`` (and the
deployment's shared precedence DAG) the same two classes run one shard of
a partitioned item space. The commit point stays client-local, so a
cross-shard transaction needs no commit messages — TxnDone simply fans
out to every touched server — except under fault injection, where the
registration round becomes the 2PC of :mod:`repro.protocols.sharded`.
"""

from dataclasses import dataclass

from repro.locking.modes import LockMode
from repro.protocols.base import (
    SERVER_SITE_ID,
    ProtocolClient,
    ProtocolServer,
)
from repro.protocols.forward_list import FLEntry, ForwardList, TxnRef
from repro.protocols.messages import (
    AbortNotice,
    ChainCommit,
    ChainCommitAck,
    CONTROL_SIZE,
    GShip,
    HandoffNote,
    LockRequest,
    ReaderRelease,
    ReleaseWaiver,
    ReturnToServer,
    TxnDone,
)
from repro.protocols.precedence import PrecedenceGraph
from repro.protocols.sharded import TwoPhaseCoordinator, TwoPhaseParticipant
from repro.protocols.sharding import SharedPrecedence
from repro.sim.errors import Interrupt

READ, WRITE = LockMode.READ, LockMode.WRITE


def dispatch_chain(sender, item_id, version, value, fl, mr1w, epoch=0):
    """Ship ``item_id`` to the first entry of ``fl`` (which starts at that
    entry). Used identically by the server (initial dispatch) and by a
    forwarding client (writer handing the item onward).

    Readers receive the FL from their own group onward so they know their
    co-readers and the writer their release must go to. Under MR1W the
    writer after a read group is shipped concurrently.
    """
    tracer = sender.sim.tracer
    # Only the server's initial ship of a chain is a *grant* round; a
    # forwarding client's ship is the tail of its own handoff round
    # (charged in _forward) — that merge is the point of the protocol.
    # Role, not address: sharded home servers live at site ids other than
    # SERVER_SITE_ID, so checking ``site_id == SERVER_SITE_ID`` here would
    # silently drop their grant rounds.
    from_server = sender.is_server
    shard = sender.shard_tag
    first = fl.head
    if first.is_read_group:
        next_writer = fl[1].writer if len(fl) > 1 else None
        group = first.txn_ids()
        for ref in first.txns:
            env = sender.send(ref.client_id,
                              GShip(txn_id=ref.txn_id, item_id=item_id,
                                    version=version, value=value,
                                    mode=READ, fl_tail=fl,
                                    group=group, epoch=epoch),
                              size=sender.data_ship_size(fl=fl))
            if tracer is not None:
                if from_server:
                    tracer.round_charge(ref.txn_id, "grant", shard=shard)
                tracer.wire_charge(ref.txn_id, env)
        if next_writer is not None and mr1w:
            env = sender.send(next_writer.client_id,
                              GShip(txn_id=next_writer.txn_id,
                                    item_id=item_id,
                                    version=version, value=value,
                                    mode=WRITE, fl_tail=fl.tail(1),
                                    group=group, await_releases_from=group,
                                    epoch=epoch),
                              size=sender.data_ship_size(fl=fl.tail(1)))
            if tracer is not None:
                # Concurrent with the read group's rounds, so it never
                # extends the sequential chain.
                tracer.round_charge(next_writer.txn_id, "grant_concurrent",
                                    shard=shard)
                tracer.wire_charge(next_writer.txn_id, env)
    else:
        writer = first.writer
        env = sender.send(writer.client_id,
                          GShip(txn_id=writer.txn_id, item_id=item_id,
                                version=version, value=value,
                                mode=WRITE, fl_tail=fl, epoch=epoch),
                          size=sender.data_ship_size(fl=fl))
        if tracer is not None:
            if from_server:
                tracer.round_charge(writer.txn_id, "grant", shard=shard)
            tracer.wire_charge(writer.txn_id, env)


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _WindowRequest:
    ref: TxnRef
    mode: object
    arrival: float


class _Chain:
    """One dispatched chain, away until every return in ``owed`` is back.

    ``fl`` is the live forward list (a grafted reader joins its one read
    group), ``members`` every ref ever on it (the ``chain_items`` index, so
    a repair keeps it), ``live`` the members not yet retired, ``version`` /
    ``value`` the newest copy returned. ``released`` (members seen to pass
    the item on) and the rest serve chain repair only."""

    __slots__ = ("fl", "members", "live", "has_writer", "owed", "version",
                 "value", "released", "dispatched_at", "watchdog", "attempt")

    def __init__(self, fl, members, live, now):
        self.members = members
        self.live = live
        self.version = -1
        self.value = None
        self.released = set()
        self.watchdog = None      # cancel token of the stalled-chain timer
        self.attempt = 0
        self.route(fl, now)

    def route(self, fl, now):
        """Send the chain down ``fl``, owing its last entry's returns."""
        self.fl = fl
        self.has_writer = any(e.mode is WRITE for e in fl.entries)
        self.owed = {ref.txn_id for ref in fl.entries[-1].txns}
        self.dispatched_at = now


class _ItemState:
    """Per-item server bookkeeping: the collection window, the dispatched
    chain (``None`` while the item is home) and ``epoch``, a counter bumped
    on every chain repair so stale copies of older dispatches can be told
    apart from repaired ones."""

    __slots__ = ("item_id", "window", "chain", "epoch")

    def __init__(self, item_id):
        self.item_id = item_id
        self.window = []          # [_WindowRequest] in arrival order
        self.chain = None
        self.epoch = 0


class _TxnEntry:
    __slots__ = ("client_id", "chain_items", "window_items")

    def __init__(self, client_id):
        self.client_id = client_id
        self.chain_items = set()  # items whose un-returned chain includes txn
        self.window_items = set()  # items whose window holds a request of txn


class G2PLServer(TwoPhaseParticipant, ProtocolServer):
    """The data server running group 2PL (one shard's home server when
    handed a ``shard_map`` and the deployment's shared precedence DAG)."""

    gauges = (("lock_queue_depth", "queue_depth"),
              ("fl_occupancy", "fl_occupancy"))

    def __init__(self, sim, config, store, history,
                 site_id=SERVER_SITE_ID, shard_map=None, precedence=None):
        super().__init__(sim, config, store, history, site_id=site_id,
                         shard_map=shard_map)
        self._init_participant()
        self._items = {item_id: _ItemState(item_id)
                       for item_id in store.item_ids()}
        # A private DAG, or the reference-counted one every shard of the
        # deployment shares: chain orders at any shard constrain dispatch
        # at every other.
        if precedence is None:
            precedence = (PrecedenceGraph() if shard_map is None
                          else SharedPrecedence())
        self.precedence = precedence
        self._txns = {}
        self._dead = set()
        # statistics
        self.windows_dispatched = 0
        self.fl_txns = 0            # txns over every dispatched FL
        self.avoidance_aborts = 0
        self.grafted_reads = 0
        # Window accounting: every request that enters a collection window
        # must leave it by exactly one of two doors — frozen into an FL or
        # purged by an abort. assert_invariants checks the ledger balances.
        self.window_enqueued = 0
        self.window_frozen = 0
        self.window_purged = 0
        # fault injection
        self._committed = set()     # txns whose ChainCommit is registered
        self._injector = None
        self._chain_timeout = None
        self.chain_repairs = 0
        self.watchdog_fires = 0
        self.crash_aborts = 0

    # -- message handlers ----------------------------------------------------

    def on_LockRequest(self, msg):
        txn_id = msg.txn_id
        if txn_id in self._dead:
            return
        entry = self._txns.get(txn_id)
        if entry is None:
            entry = self._txns[txn_id] = _TxnEntry(msg.client_id)
            if self.shard_map is not None:
                # First registration at this shard pins the shared node
                # once; _retire releases exactly one pin per shard.
                self.precedence.acquire(txn_id)
        info = self._items[msg.item_id]
        ref = TxnRef(txn_id=txn_id, client_id=entry.client_id)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("lock.request", txn_id, msg.item_id, msg.mode.name,
                       msg.client_id)

        # Fixed constraint: every live dispatched-chain member precedes the
        # new request. If any such edge closes a cycle, the conflicting
        # order is frozen elsewhere: unavoidable deadlock, abort.
        chain = info.chain
        live_chain = ([t for t in chain.live if t != txn_id]
                      if chain is not None else ())
        # An edge chain_txn -> txn_id closes a cycle iff txn_id already
        # reaches chain_txn; one DFS over the member set answers them all.
        if live_chain and self.precedence.reaches_any(txn_id, live_chain):
            self._abort(txn_id, reason="precedence-cycle")
            return

        if (self._graft_allowed(info)
                and chain is not None
                and msg.mode is READ
                and not chain.has_writer
                and not any(w.mode is WRITE for w in info.window)):
            self._graft_reader(info, ref)
            return

        # Safe unchecked: the reaches_any guard above proved txn_id reaches
        # no chain member, and edges *into* txn_id cannot change that.
        add_edge = self.precedence.add_edge_unchecked
        for chain_txn in live_chain:
            add_edge(chain_txn, txn_id)
        info.window.append(
            _WindowRequest(ref=ref, mode=msg.mode, arrival=self.sim.now))
        entry.window_items.add(msg.item_id)
        self.window_enqueued += 1
        if tracer is not None:
            tracer.row("fl.collect", txn_id, msg.item_id, len(info.window))
        if chain is None:
            self._maybe_dispatch(info)

    def on_ReturnToServer(self, msg):
        info = self._items[msg.item_id]
        chain = info.chain
        if chain is None or msg.from_txn not in chain.owed:
            return  # stale: a duplicate, or a chain already repaired home
        chain.owed.remove(msg.from_txn)
        chain.released.add(msg.from_txn)
        if msg.version > chain.version:
            chain.version = msg.version
            chain.value = msg.value
        if not chain.owed:
            self._item_home(info)

    def on_TxnDone(self, msg):
        self._retire(msg.txn_id)

    # -- fault recovery --------------------------------------------------------

    def enable_fault_recovery(self, injector, rto, chain_timeout,
                              sweep_interval):
        """Install the deterministic failure detector and the stalled-chain
        watchdog timeout. Crash recovery in g-2PL is chain repair: when a
        dispatched chain stops making progress, the server aborts crashed
        members, waives releases the next writers were expecting from dead
        readers, and re-dispatches the item (from its own store, which in
        fault mode holds every registered commit) to the surviving suffix
        under a bumped epoch."""
        self._injector = injector
        self._chain_timeout = chain_timeout

    @classmethod
    def cross_shard_state(cls):
        return {"precedence": SharedPrecedence()}

    def _apply_commit(self, txn_id, writes, commit_time):
        """Register the commit and install this server's share of the
        writes map (item -> (version, value))."""
        if txn_id in self._committed:
            return
        self._committed.add(txn_id)
        self.history.record_commit(txn_id, time=commit_time)
        # Install immediately so a repair re-dispatch can never ship a
        # version that predates this commit (lost committed write). The
        # version guard makes the eventual chain return a no-op.
        for item_id, (version, value) in sorted(writes.items()):
            if item_id in self._items and version > self.store.version(item_id):
                self.store.install_as(item_id, version, value=value,
                                      now=self.sim.now)

    def on_ChainCommit(self, msg):
        if msg.txn_id in self._dead:
            return  # repaired away before the registration arrived
        self._apply_commit(msg.txn_id, msg.writes, msg.commit_time)
        env = self.send(msg.client_id, ChainCommitAck(txn_id=msg.txn_id),
                        size=CONTROL_SIZE)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("chain.commit", msg.txn_id)
            tracer.round_charge(msg.txn_id, "commit_ack")
            tracer.wire_charge(msg.txn_id, env, phase="commit")

    def on_HandoffNote(self, msg):
        chain = self._items[msg.item_id].chain
        if chain is not None:
            # Repair reads ``released`` only against the chain's own
            # members, so a note from an earlier chain changes nothing.
            chain.released.add(msg.from_txn)

    # -- cross-shard commit, fault mode (TwoPhaseParticipant host) ------------

    def _can_prepare(self, txn_id):
        return txn_id not in self._dead

    def on_CommitDecision(self, msg):
        txn_id = msg.txn_id
        staged = self._prepared.pop(txn_id, None)
        self._end_termination(txn_id)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("twopc.decision", txn_id, self.site_id, msg.commit)
        if msg.commit:
            if staged is not None:
                self.twopc_commits.add(txn_id)
                self._apply_commit(txn_id, staged.updates,
                                   commit_time=msg.commit_time)
        else:
            self.twopc_aborts.add(txn_id)
            if txn_id in self._txns and txn_id not in self._dead:
                # Client-initiated abort after a refused vote: retire
                # silently (the client already knows; its holds forward
                # unchanged and TxnDone follows).
                self._dead.add(txn_id)
                self._retire(txn_id)
        if msg.ack and staged is not None:
            self._send_decision_ack(msg, staged.client_id)

    def _outcome_status(self, txn_id):
        if txn_id in self._committed or txn_id in self.twopc_commits:
            return "committed"
        if txn_id in self._prepared:
            return "prepared"
        if txn_id in self._dead or txn_id in self.twopc_aborts:
            return "aborted"
        return "unknown"

    def _settle(self, txn_id, staged, commit):
        if commit:
            # The committed peer holds the stamped decision time. The dead
            # client forwards nothing; chain repair (no longer deferred now
            # that the doubt is resolved) redistributes its holds.
            self._apply_commit(txn_id, staged.updates, commit_time=None)
        elif txn_id in self._txns:
            self._abort(txn_id, reason="client-crash")

    def _arm_watchdog(self, info):
        chain = info.chain
        if chain.watchdog is not None:
            chain.watchdog[0] = True
        delay = self._chain_timeout * (2.0 ** min(chain.attempt, 6))
        chain.watchdog = self.sim.call_later_cancellable(
            delay, self._watchdog_fire, info.item_id)

    def _watchdog_fire(self, item_id):
        info = self._items[item_id]
        chain = info.chain
        if chain is None:
            return
        self.watchdog_fires += 1
        chain.attempt += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("fl.watchdog", item_id, chain.attempt)
        self._repair_chain(info)

    def _repair_chain(self, info):
        """The chain watchdog fired: route the item around dead members.
        It reads only ``fl``, grafted readers included, so a lock is taken
        from a failed holder, never from its live sharers.

        Re-dispatching to the pending suffix is always safe — in fault mode
        every committed write reaches the server *before* its holder
        forwards (ChainCommit gating), so the store version re-shipped to a
        member is exactly the committed prefix of its predecessors; clients
        merge duplicate copies without clobbering received data and double
        returns are absorbed by set-based accounting. A member that already
        forwarded answers a re-ship with a handoff note, shrinking the
        pending set for the next round.
        """
        now = self.sim.now
        item_id = info.item_id
        chain = info.chain
        dead = self._dead
        # members the server has not yet seen pass the item on
        pending = [ref for ref in chain.fl.all_txns()
                   if ref.txn_id not in chain.released
                   and ref.txn_id not in dead]
        if self._prepared and [ref for ref in pending
                               if self._in_doubt(ref.txn_id, now)]:
            # A PREPARED member whose coordinator crashed may be committed
            # at another shard: termination must settle it before repair
            # may route around (or abort) it. Look again later.
            self._arm_watchdog(info)
            return
        if not pending:
            # Every member either returned, handed off, or died, so no live
            # member will ever return the data (a genuinely in-flight
            # return comes from a member still counted as pending; a member
            # that only handed off to a *dead* successor leaves the item
            # stranded). Recover from the store copy — ChainCommit gating
            # makes it at least as new as any copy the chain ever held.
            self.chain_repairs += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.row("fl.repair", item_id, "store-recovery", 0)
            self._item_home(info)
            return
        crashed = [ref for ref in pending
                   if self._injector.crashed_during(
                       ref.client_id, chain.dispatched_at, now)]
        if not crashed and chain.attempt < 3:
            # No member provably died; the chain is probably just slow (a
            # member holds an item for its whole transaction). Only after
            # three fires (the backoff doubles each time) does the repair
            # run as a stall-breaker for the rare data-swallow case a dead
            # member's removal can leave behind.
            self._arm_watchdog(info)
            return
        self.chain_repairs += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("fl.repair", item_id, "route-around", len(crashed))
        crashed_ids = {ref.txn_id for ref in crashed}
        for ref in crashed:
            chain.owed.discard(ref.txn_id)
            chain.released.add(ref.txn_id)
            if ref.txn_id in self._committed:
                # Durably committed before dying: its effects are already
                # in the store; it just cannot forward. Skip its position.
                if ref.txn_id in self._txns:
                    self._retire(ref.txn_id)
            elif ref.txn_id in self._txns:
                self._abort(ref.txn_id, reason="client-crash")
        # Waive the releases the next writers were expecting from dead
        # readers, or they would gate forever.
        entries = chain.fl.entries
        for group, following in zip(entries, entries[1:]):
            if not group.is_read_group or following.writer.txn_id in dead:
                continue
            writer = following.writer
            for reader in group.txns:
                if reader.txn_id in crashed_ids:
                    self.send(writer.client_id,
                              ReleaseWaiver(item_id=item_id,
                                            from_txn=reader.txn_id,
                                            to_txn=writer.txn_id),
                              size=CONTROL_SIZE)
        survivors = [
            (ref, mode) for ref, mode in chain.fl.requests()
            if ref.txn_id not in chain.released
            and ref.txn_id not in dead
            and ref.txn_id in self._txns]
        if not survivors:
            self._item_home(info)
            return
        # Re-ship to the surviving suffix (original order preserved) under
        # a bumped epoch.
        fl = ForwardList.from_requests(survivors)
        chain.route(fl, now)
        info.epoch += 1
        item = self.store.read(item_id)
        dispatch_chain(self, item_id, item.version, item.value, fl,
                       mr1w=self.config.mr1w, epoch=info.epoch)
        self._arm_watchdog(info)

    def _item_home(self, info):
        """The chain is fully accounted for: install and open the window."""
        item_id = info.item_id
        chain = info.chain
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("fl.home", item_id)
        for ref in chain.members:
            entry = self._txns.get(ref.txn_id)
            if entry is not None:
                entry.chain_items.discard(item_id)
        info.chain = None
        if chain.watchdog is not None:
            chain.watchdog[0] = True
        if chain.version > self.store.version(item_id):
            self.store.install_as(item_id, chain.version,
                                  value=chain.value, now=self.sim.now)
        self._maybe_dispatch(info)

    # -- internals -----------------------------------------------------------

    def _retire(self, txn_id):
        """A transaction terminated: drop it from the avoidance structures."""
        entry = self._txns.pop(txn_id, None)
        if entry is None:
            # Never registered here (or already retired): a TxnDone fan-out
            # duplicate must not steal another shard's pin on the node.
            return
        self.precedence.remove_node(txn_id)
        for item_id in entry.chain_items:
            self._items[item_id].chain.live.discard(txn_id)

    def _abort(self, txn_id, reason):
        entry = self._txns[txn_id]
        self._dead.add(txn_id)
        if reason == "client-crash":
            self.crash_aborts += 1
        else:
            self.avoidance_aborts += 1
        self.aborts_initiated += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("txn.abort", txn_id, reason)
        expect = tuple(sorted(entry.chain_items))
        # Purge the victim's window entries. A sequential client has none
        # (its one outstanding request is the one being refused); only a
        # client-crash victim can be waiting in another item's window.
        for item_id in entry.window_items:
            info = self._items[item_id]
            kept = [w for w in info.window if w.ref.txn_id != txn_id]
            self.window_purged += len(info.window) - len(kept)
            info.window = kept
        self._retire(txn_id)
        if reason == "client-crash":
            return  # nobody home to notify; chain repair moves the data
        env = self.send(entry.client_id,
                        AbortNotice(txn_id=txn_id, reason=reason,
                                    expect_items=expect),
                        size=CONTROL_SIZE)
        if tracer is not None:
            # Abort-resolution wire: the victim cannot make progress until
            # the notice arrives (see the s-2PL counterpart).
            tracer.wire_charge(txn_id, env, phase="abort")

    def _graft_allowed(self, info):
        """May readers graft onto this item's in-flight chain?  Base g-2PL
        answers from configuration alone; the hybrid subclass answers
        per item (single mode grafts)."""
        return self.config.expand_read_groups

    def _graft_reader(self, info, ref):
        """Read-only optimization: join a writer-free in-flight chain."""
        # The grafted reader must precede everything the chain precedes;
        # since the chain is one read group and the window holds no writers,
        # the only orders to fix are reader -> (future) window writers,
        # none of which exist. Nothing can cycle; graft unconditionally
        # into that read group, owing a return like any co-reader.
        chain = info.chain
        item_id = info.item_id
        chain.fl = ForwardList(
            (FLEntry(READ, chain.fl.head.txns + (ref,)),))
        chain.members.append(ref)
        chain.live.add(ref.txn_id)
        chain.owed.add(ref.txn_id)
        self._txns[ref.txn_id].chain_items.add(item_id)
        self.grafted_reads += 1
        item = self.store.read(item_id)
        dispatch_chain(self, item_id, item.version, item.value,
                       ForwardList((FLEntry(READ, (ref,)),)),
                       mr1w=self.config.mr1w, epoch=info.epoch)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("fl.graft", ref.txn_id, item_id)

    def _ordering_key(self, window_requests):
        """Tiebreak key for the linear extension: arrival order within the
        configured discipline."""
        arrival = {w.ref.txn_id: (w.arrival, index)
                   for index, w in enumerate(window_requests)}
        mode = {w.ref.txn_id: w.mode for w in window_requests}
        discipline = self.config.fl_ordering
        if discipline == "fifo":
            return lambda txn: arrival[txn]
        if discipline == "reads_first":
            return lambda txn: (mode[txn] is not READ, arrival[txn])
        return lambda txn: (mode[txn] is not WRITE, arrival[txn])

    def _select_window(self, info, order):
        """Split the linear extension into the txns frozen into this FL and
        the leftovers carried to the next window. Base g-2PL cuts at the
        configured forward-list cap; the hybrid subclass cuts per item."""
        cap = self.config.max_forward_list_length
        if cap is None:
            return order, []
        return order[:cap], order[cap:]

    def _maybe_dispatch(self, info):
        """Freeze the window into a forward list and dispatch it: order by
        a linear extension of the DAG, cut (:meth:`_select_window`), carry
        the leftovers into the next window, fix the chain order in the DAG,
        ship the chain."""
        if info.chain is not None or not info.window:
            return
        window = info.window
        if len(window) == 1:
            # A one-request window needs no ordering key and no extension.
            order = [window[0].ref.txn_id]
        else:
            order = self.precedence.linear_extension(
                [w.ref.txn_id for w in window],
                key=self._ordering_key(window))
        by_txn = {w.ref.txn_id: w for w in window}
        selected_ids, leftover_ids = self._select_window(info, order)

        selected = [by_txn[txn_id] for txn_id in selected_ids]
        self.window_frozen += len(selected)
        for w in selected:
            # The request leaves the window for the chain.
            entry = self._txns[w.ref.txn_id]
            entry.window_items.discard(info.item_id)
            entry.chain_items.add(info.item_id)
        info.window = sorted((by_txn[txn_id] for txn_id in leftover_ids),
                             key=lambda w: w.arrival)

        fl = ForwardList.from_requests(
            [(w.ref, w.mode) for w in selected])

        # Chain-order edges: every earlier entry precedes every later entry
        # (all pairs, so the constraint survives intermediate terminations).
        # Safe unchecked: both loops chain edges along the linear-extension
        # order (selected entries in order, then selected -> leftover), and
        # edges along a linear extension of reachability cannot cycle.
        entries = fl.entries
        add_edge = self.precedence.add_edge_unchecked
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                for src in entries[i].txns:
                    for dst in entries[j].txns:
                        add_edge(src.txn_id, dst.txn_id)
        # Fixed edges to the leftovers that will follow this chain.
        for w in info.window:
            for s in selected:
                add_edge(s.ref.txn_id, w.ref.txn_id)

        info.chain = _Chain(fl, [w.ref for w in selected],
                            {w.ref.txn_id for w in selected
                             if w.ref.txn_id not in self._dead},
                            self.sim.now)
        if self.fault_mode:
            self._arm_watchdog(info)

        self.windows_dispatched += 1
        self.fl_txns += fl.txn_count()
        tracer = self.sim.tracer
        if tracer is not None:
            # The window that collected while the item was away freezes
            # into this FL; a new one opens (carrying any capped leftover)
            # and collects until the item next comes home.
            tracer.row("fl.window_close", info.item_id, len(selected))
            tracer.row("fl.dispatch", info.item_id, fl.txn_count(), info.epoch)
            tracer.row("fl.window_open", info.item_id, len(info.window))
        item = self.store.read(info.item_id)
        dispatch_chain(self, info.item_id, item.version, item.value, fl,
                       mr1w=self.config.mr1w, epoch=info.epoch)

    # -- diagnostics ----------------------------------------------------------

    def stats(self):
        stats = super().stats()
        stats["windows_dispatched"] = self.windows_dispatched
        stats["avoidance_aborts"] = self.avoidance_aborts
        stats["grafted_reads"] = self.grafted_reads
        # with windows_dispatched, the run's mean_fl_length
        stats["fl_txns"] = self.fl_txns
        if self.fault_mode:
            stats["chain_repairs"] = self.chain_repairs
            stats["watchdog_fires"] = self.watchdog_fires
            stats["crash_aborts"] = self.crash_aborts
        return stats

    def queue_depth(self):
        """Requests waiting in collection windows (contention gauge)."""
        return self.window_enqueued - self.window_frozen - self.window_purged

    def fl_occupancy(self):
        """Live transactions on currently-dispatched forward lists."""
        live = 0  # every probe tick: a generator costs a third more
        for info in self._items.values():
            chain = info.chain
            if chain is not None:
                live += len(chain.live)
        return live

    def assert_invariants(self):
        """Cheap structural invariants, used by tests after every run."""
        cycle = self.precedence.find_any_cycle()
        if cycle is not None:
            raise AssertionError(f"precedence graph has a cycle: {cycle}")
        for item_id, info in self._items.items():
            if info.chain is not None and not info.chain.owed:
                raise AssertionError(
                    f"item {item_id} is away but its chain owes no return")
        pending = sum(len(info.window) for info in self._items.values())
        if self.window_enqueued != (
                self.window_frozen + self.window_purged + pending):
            raise AssertionError(
                "window accounting leak: "
                f"enqueued={self.window_enqueued} != "
                f"frozen={self.window_frozen} + purged={self.window_purged}"
                f" + pending={pending}")
        scanned = {}
        for item_id, info in self._items.items():
            for w in info.window:
                scanned.setdefault(w.ref.txn_id, set()).add(item_id)
        indexed = {txn_id: entry.window_items
                   for txn_id, entry in self._txns.items()
                   if entry.window_items}
        if indexed != scanned:
            raise AssertionError(f"window index {indexed} != scan {scanned}")
        scanned = {}
        for item_id, info in self._items.items():
            if info.chain is not None:
                for ref in info.chain.members:
                    if ref.txn_id in self._txns:
                        scanned.setdefault(ref.txn_id, set()).add(item_id)
        indexed = {txn_id: entry.chain_items
                   for txn_id, entry in self._txns.items()
                   if entry.chain_items}
        if indexed != scanned:
            raise AssertionError(f"chain index {indexed} != scan {scanned}")


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class _Hold:
    """Client-side state for one (transaction, item) pair."""

    __slots__ = ("txn_id", "item_id", "mode", "version", "value", "fl_tail",
                 "group", "awaiting", "gate_releases", "data_received",
                 "committed_write", "new_value", "released", "early_releases",
                 "epoch")

    def __init__(self, txn_id, item_id):
        self.txn_id = txn_id
        self.item_id = item_id
        self.mode = None
        self.version = None
        self.value = None
        self.fl_tail = None       # ForwardList starting at own entry
        self.group = ()
        self.awaiting = set()     # reader txn ids still to release to us
        self.gate_releases = False  # basic-mode writer: execute after releases
        self.data_received = False
        self.committed_write = False
        self.new_value = None
        self.released = False
        self.early_releases = set()
        self.epoch = 0            # chain-repair epoch of the received copy

    @property
    def ready_for_txn(self):
        return self.data_received and not (self.gate_releases and self.awaiting)


class G2PLClient(TwoPhaseCoordinator, ProtocolClient):
    """A client site running group-2PL transactions.

    Beyond executing its own transactions, the client participates in data
    migration: it forwards items along forward lists on behalf of committed
    *and aborted* transactions (an aborted transaction's position on a
    dispatched chain cannot be skipped — the data simply passes through
    unchanged).
    """

    def __init__(self, sim, client_id, config, history, shard_map=None):
        super().__init__(sim, client_id, config, history, shard_map=shard_map)
        self._init_coordinator()
        self._active = {}
        self._grant_events = {}   # txn_id -> (item, Event, requested, think)
        self._abort_flags = {}
        self._holds = {}          # (txn_id, item_id) -> _Hold
        self._txn_holds = {}      # txn_id -> set(item_id)
        # txn_id -> "committed" / "aborted" / "aborted-server" once the
        # transaction has finished but its holds are not all forwarded yet.
        self._txn_state = {}
        self._commit_events = {}  # txn_id -> Event awaiting ChainCommitAck
        # txn_id -> home servers this transaction touched; TxnDone must
        # reach every one of them (a single-server layout touches only
        # SERVER_SITE_ID and degenerates to one notification).
        self._txn_servers = {}

    def reset_protocol_state(self):
        self._active.clear()
        self._grant_events.clear()
        self._abort_flags.clear()
        self._holds.clear()
        self._txn_holds.clear()
        self._txn_state.clear()
        self._commit_events.clear()
        self._txn_servers.clear()
        self._vote_state.clear()
        self._ack_state.clear()

    # -- message handlers ----------------------------------------------------

    def _hold(self, txn_id, item_id):
        key = (txn_id, item_id)
        hold = self._holds.get(key)
        if hold is None:
            hold = self._holds[key] = _Hold(txn_id, item_id)
            self._txn_holds.setdefault(txn_id, set()).add(item_id)
        return hold

    def on_GShip(self, msg):
        if self.fault_mode and self._on_gship_fault(msg):
            return
        hold = self._hold(msg.txn_id, msg.item_id)
        hold.mode = msg.mode
        hold.version = msg.version
        hold.value = msg.value
        hold.fl_tail = msg.fl_tail
        hold.group = msg.group
        hold.epoch = msg.epoch
        hold.data_received = True
        if msg.await_releases_from:
            hold.awaiting = set(msg.await_releases_from) - hold.early_releases
        hold.early_releases = set()
        self._progress(hold)

    def _on_gship_fault(self, msg):
        """Fault-mode pre-handling of a ship; True when fully handled."""
        hold = self._holds.get((msg.txn_id, msg.item_id))
        if hold is None:
            if (msg.txn_id not in self._active
                    and msg.txn_id not in self._txn_state):
                # Repair re-ship for a hold this client already forwarded —
                # or a pre-crash transaction a restarted site no longer
                # remembers. Re-assert the release so the next repair round
                # routes around this position instead of waiting on it.
                self.send_control(self.home_of(msg.item_id),
                                  HandoffNote(item_id=msg.item_id,
                                              from_txn=msg.txn_id))
                return True
            return False
        if hold.data_received:
            # Duplicate copy from a chain repair: never clobber received
            # data, but a newer epoch replaces the routing state. Shrinking
            # the awaiting set to the re-shipped group is safe — a reader
            # the server dropped from the group has either released already
            # or will never release (crashed).
            if msg.epoch > hold.epoch:
                hold.epoch = msg.epoch
                hold.fl_tail = msg.fl_tail
                if msg.group:
                    hold.group = msg.group
                hold.awaiting &= set(msg.await_releases_from)
            self._progress(hold)
            return True
        return False

    def on_ReaderRelease(self, msg):
        hold = self._hold(msg.to_txn, msg.item_id)
        if msg.carries_data and not hold.data_received:
            # Basic mode: the data and the remaining FL arrive with the
            # (first) reader release; the writer executes once the whole
            # group has released.
            hold.mode = WRITE
            hold.version = msg.version
            hold.value = msg.value
            hold.fl_tail = msg.fl_from_writer
            hold.group = msg.group
            hold.gate_releases = True
            hold.awaiting = set(msg.group) - hold.early_releases - {msg.from_txn}
            hold.early_releases = set()
            hold.data_received = True
        elif hold.data_received:
            hold.awaiting.discard(msg.from_txn)
        else:
            # MR1W race guard: release beats the concurrent GShip.
            hold.early_releases.add(msg.from_txn)
        self._progress(hold)

    def on_ChainCommitAck(self, msg):
        event = self._commit_events.pop(msg.txn_id, None)
        if event is not None and not event.triggered:
            event.succeed(msg)

    def on_ReleaseWaiver(self, msg):
        hold = self._holds.get((msg.to_txn, msg.item_id))
        if hold is None:
            if msg.to_txn in self._active or msg.to_txn in self._txn_state:
                # The waived release may beat the data (MR1W race shape).
                self._hold(msg.to_txn, msg.item_id).early_releases.add(
                    msg.from_txn)
            return
        hold.awaiting.discard(msg.from_txn)
        hold.early_releases.add(msg.from_txn)
        self._progress(hold)

    def on_AbortNotice(self, msg):
        txn = self._active.get(msg.txn_id)
        if txn is not None:
            pending = self._grant_events.pop(msg.txn_id, None)
            if pending is not None:
                # same-timestamp hop kept: the continuation sends, records
                pending[1].succeed(msg)
            else:
                self._abort_flags[msg.txn_id] = msg
        for item_id in msg.expect_items:
            # Items frozen into dispatched chains still arrive here and must
            # be forwarded on the dead transaction's behalf.
            self._hold(msg.txn_id, item_id)
        if txn is None and msg.txn_id not in self._txn_state:
            # Defensive: notice for a transaction this client no longer runs.
            self._txn_state[msg.txn_id] = "aborted-server"
            self._try_release(msg.txn_id)
        # An active txn is finished by its coroutine, which releases holds.

    # -- hold progression ------------------------------------------------------

    def _progress(self, hold):
        if hold.ready_for_txn:
            pending = self._grant_events.get(hold.txn_id)
            if pending is not None and pending[0] == hold.item_id:
                # one heap entry for grant + think: the coroutine wakes once
                del self._grant_events[hold.txn_id]
                _, event, requested_at, think_time = pending
                self.op_waits.append(self.sim.now - requested_at)
                event.succeed_after(think_time, hold)
        self._try_release(hold.txn_id)

    def _try_release(self, txn_id):
        """Forward whatever this finished transaction may release.

        A *committed* transaction releases all-or-nothing: no hold moves
        while any MR1W awaiting-set is non-empty, because forwarding any
        update of the writer before its readers released would let another
        transaction observe the writer's effects while serialising before
        it (strictness at transaction granularity). An *aborted* transaction
        forwards unchanged data per item as soon as it arrives.
        """
        state = self._txn_state.get(txn_id)
        if state is None:
            return
        item_ids = self._txn_holds.get(txn_id, ())
        holds = [self._holds[(txn_id, item)] for item in list(item_ids)]
        if state == "committed":
            if any(not h.data_received or h.awaiting for h in holds):
                return
            for hold in holds:
                self._forward(hold)
        else:
            for hold in holds:
                if hold.data_received and not hold.awaiting and not hold.released:
                    self._forward(hold)
        self._maybe_done(txn_id)

    def _maybe_done(self, txn_id):
        """Once every hold has been forwarded, tell every touched home
        server the transaction is fully over (it leaves the precedence
        graph only then — it can still constrain orders while it holds
        data)."""
        if self._txn_holds.get(txn_id):
            return
        state = self._txn_state.pop(txn_id, None)
        if state is None:
            return
        targets = sorted(self._txn_servers.pop(txn_id, None)
                         or (self.server_id,))
        # The home server that aborted an "aborted-server" transaction has
        # retired it, but in a sharded run the *other* touched servers must
        # hear too, or it would pin the shared precedence graph (and its
        # chain slots) forever.
        if state != "aborted-server" or len(targets) > 1:
            for target in targets:
                self.send_control(target, TxnDone(txn_id=txn_id))

    def _forward(self, hold):
        """Pass the item to the FL successor (or home to the server)."""
        hold.released = True
        if hold.mode is WRITE and hold.committed_write:
            out_version = hold.version + 1
            out_value = hold.new_value
        else:
            out_version = hold.version
            out_value = hold.value
        fl = hold.fl_tail
        tracer = self.sim.tracer
        rest = fl.tail(1) if fl is not None and len(fl) else ForwardList()
        forwarded_to_client = bool(rest)
        if not forwarded_to_client:
            self.send(self.home_of(hold.item_id),
                      ReturnToServer(item_id=hold.item_id,
                                     version=out_version, value=out_value,
                                     from_txn=hold.txn_id),
                      size=self.data_ship_size())
        elif hold.mode is READ:
            writer = rest.head.writer
            carries = not self.config.mr1w
            env = self.send(writer.client_id,
                            ReaderRelease(
                                item_id=hold.item_id,
                                from_txn=hold.txn_id,
                                to_txn=writer.txn_id,
                                version=out_version,
                                value=out_value if carries else None,
                                fl_from_writer=rest if carries else None,
                                group=hold.group, carries_data=carries),
                            size=(self.data_ship_size(fl=rest)
                                  if carries else CONTROL_SIZE))
            successor = writer.client_id
            if tracer is not None and carries:
                # Basic mode: the writer awaits this release for its
                # data, so its wire counts against the writer.
                tracer.wire_charge(writer.txn_id, env)
        else:
            dispatch_chain(self, hold.item_id, out_version, out_value,
                           rest, mr1w=self.config.mr1w, epoch=hold.epoch)
            head = rest.head
            successor = (head.txns[0].client_id if head.is_read_group
                         else head.writer.client_id)
        if tracer is not None:
            # The merged release+grant is one sequential round, charged to
            # the transaction whose termination triggers it.
            if forwarded_to_client:
                tracer.round_charge(hold.txn_id, "handoff")
                tracer.row("fl.handoff", hold.txn_id, hold.item_id, successor)
            else:
                tracer.round_charge(hold.txn_id, "release")
                tracer.row("fl.return", hold.txn_id, hold.item_id)
        if forwarded_to_client and self.fault_mode:
            # Progress beacon for the stalled-chain watchdog: this member
            # has passed the item on (returns speak for themselves).
            self.send_control(self.home_of(hold.item_id),
                              HandoffNote(item_id=hold.item_id,
                                          from_txn=hold.txn_id))
        self._holds.pop((hold.txn_id, hold.item_id), None)
        item_set = self._txn_holds.get(hold.txn_id)
        if item_set is not None:
            item_set.discard(hold.item_id)
            if not item_set:
                del self._txn_holds[hold.txn_id]

    # -- transaction execution -------------------------------------------------

    def execute(self, txn):
        """Process body: run one transaction to commit or abort."""
        start_time = self.sim.now
        self._active[txn.txn_id] = txn
        try:
            yield from self._run_ops(txn)
        finally:
            self._active.pop(txn.txn_id, None)
            self._grant_events.pop(txn.txn_id, None)
            self._abort_flags.pop(txn.txn_id, None)
        end_time = self.sim.now
        committed = txn.status.value == "committed"
        if committed:
            if not self.fault_mode:
                # Fault mode: the server already recorded the commit when it
                # acked the ChainCommit registration.
                self.history.record_commit(txn.txn_id, time=self.sim.now)
            self._txn_state[txn.txn_id] = "committed"
        elif txn.abort_reason == "commit-limbo":
            # Crashed while awaiting the ChainCommitAck: the server's record
            # is authoritative (an unregistered commit counts as aborted),
            # so record nothing — and the dead site forwards nothing; chain
            # repair redistributes the holds.
            return self.make_outcome(txn, start_time, end_time)
        elif txn.abort_reason == "client-crash":
            self.history.record_abort(txn.txn_id)
            # Fail-stop: no releases flow from a dead site.
            return self.make_outcome(txn, start_time, end_time)
        else:
            self.history.record_abort(txn.txn_id)
            # Server-initiated aborts (the only kind in g-2PL) were already
            # retired from the precedence graph; no TxnDone follows.
            self._txn_state[txn.txn_id] = (
                "aborted-server" if txn.abort_reason == "precedence-cycle"
                else "aborted")
            for item_id in list(self._txn_holds.get(txn.txn_id, ())):
                self._holds[(txn.txn_id, item_id)].committed_write = False
        self._try_release(txn.txn_id)
        return self.make_outcome(txn, start_time, end_time)

    def _run_ops(self, txn):
        sim = self.sim
        tracer = sim.tracer
        txn_id = txn.txn_id
        routed = self.shard_map is not None
        home = self.server_id
        try:
            for op in txn.spec.operations:
                item_id = op.item_id
                if routed:
                    # (unrouted, TxnDone and commit default to the server)
                    home = self.home_of(item_id)
                    self._txn_servers.setdefault(txn_id, set()).add(home)
                env = self.send(home,
                                LockRequest(txn_id=txn_id, item_id=item_id,
                                            mode=op.mode,
                                            client_id=self.client_id),
                                size=CONTROL_SIZE)
                if tracer is not None:
                    tracer.round_charge(txn_id, "request")
                    tracer.wire_charge(txn_id, env)
                event = sim.event()
                self._grant_events[txn_id] = (item_id, event, sim.now,
                                              op.think_time)
                hold = self._holds.get((txn_id, item_id))
                if hold is not None:
                    self._progress(hold)  # the data may have raced ahead
                msg = yield event  # fires think_time after the grant
                if isinstance(msg, AbortNotice):
                    txn.abort(msg.reason)
                    break
                hold = msg
                if tracer is not None:
                    tracer.think_charge(txn_id, op.think_time)
                notice = self._abort_flags.pop(txn_id, None)
                if notice is not None:
                    txn.abort(notice.reason)
                    break
                txn.ops_done += 1
                version = hold.version
                if op.mode is WRITE:
                    version += 1
                    hold.committed_write = True  # finalised below on abort
                    hold.new_value = f"t{txn_id}v{version}"
                self.history.record_access(txn_id, item_id, op.mode, version,
                                           sim.now)
            else:
                if self.fault_mode:
                    yield from self._register_commit(txn)
                else:
                    txn.commit()
        except Interrupt:
            # The client site fail-stopped mid-transaction (fault
            # injection); the run's crash controller interrupted us.
            txn.abort("client-crash")

    def _register_commit(self, txn):
        """Fault mode: the commit only counts once the server side has
        durably registered it — before any hold is forwarded.

        One touched server: send the writes as a
        :class:`~repro.protocols.messages.ChainCommit` and wait for the
        ack. Several: a 2PC in which every participant stages the
        transaction's *full* writes map, so any single survivor can answer
        termination queries (and install the writes) authoritatively.
        """
        txn_id = txn.txn_id
        writes = {}
        for item_id in self._txn_holds.get(txn_id, ()):
            hold = self._holds[(txn_id, item_id)]
            if hold.committed_write:
                writes[item_id] = (hold.version + 1, hold.new_value)
        targets = sorted(self._txn_servers.get(txn_id, ())
                         or (self.server_id,))
        if len(targets) > 1:
            # Interrupted before deciding, the participants are prepared
            # (or not); termination settles them and the server-side
            # record is authoritative.
            yield from self._two_phase_commit(
                txn, targets, dict.fromkeys(targets, writes),
                in_doubt="commit-limbo")
            return
        event = self.sim.event()
        self._commit_events[txn_id] = event
        self.send_control(targets[0],
                          ChainCommit(txn_id=txn_id,
                                      client_id=self.client_id,
                                      writes=writes,
                                      commit_time=self.sim.now))
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.round_charge(
                txn_id, "commit",
                shard=targets[0] if self.shard_map is not None else None)
        try:
            yield event
        except Interrupt:
            txn.abort("commit-limbo")
            return
        finally:
            self._commit_events.pop(txn_id, None)
        txn.commit()
