"""Server-based strict two-phase locking (s-2PL), the paper's baseline.

Protocol (§3.1, §4):

* Growing phase — the client requests each data item in turn; the server
  acquires the lock (or queues the request) and ships the item when granted.
* Shrinking phase — at commit the client sends a single release message
  carrying all modified items; the server installs them,
  releases the locks and grants/ships to the next compatible waiters.
* Deadlock handling — detection, initiated whenever a lock cannot be
  granted: the server computes the wait-for graph and aborts transactions
  until no cycle involves the new request. Aborted transactions are
  replaced by fresh ones at the client (driver's job).

One server is the degenerate case of N: handed a ``shard_map`` the same
two classes run one shard of a partitioned item space. The client routes
each request to the item's home server, a transaction that touched one
server commits with the plain release round, and one that touched several
runs the atomic commit of :mod:`repro.protocols.sharded` (classic 2PC, or
"2pc-opt" with the votes riding the last lock grant of each shard).
"""

from repro.locking.lock_table import LockRequestState, LockTable
from repro.locking.modes import LockMode
from repro.locking.waitfor import find_cycle_through, name_cycle
from repro.protocols.base import (
    SERVER_SITE_ID,
    ProtocolClient,
    ProtocolServer,
)
from repro.protocols.messages import (
    AbortNotice,
    AbortRelease,
    CommitRelease,
    CONTROL_SIZE,
    DATA_ITEM_SIZE,
    DataShip,
    LockRequest,
)
from repro.protocols.sharded import TwoPhaseCoordinator, TwoPhaseParticipant
from repro.protocols.transaction import TxnStatus
from repro.sim.errors import Interrupt

WRITE = LockMode.WRITE
GRANTED = LockRequestState.GRANTED
COMMITTED = TxnStatus.COMMITTED


class S2PLServer(TwoPhaseParticipant, ProtocolServer):
    """The data server running strict 2PL (one shard's home server when
    handed a ``shard_map``: strict 2PL plus 2PC participation)."""

    gauges = (("lock_queue_depth", "queue_depth"),)

    def __init__(self, sim, config, store, history,
                 site_id=SERVER_SITE_ID, shard_map=None):
        super().__init__(sim, config, store, history, site_id=site_id,
                         shard_map=shard_map)
        self._init_participant()
        # "2pc-opt": (txn_id, item_id) of queued requests whose grant must
        # carry the shard's prepare vote.
        self._vote_wanted = set()
        self.lock_table = LockTable()
        # txn_id -> client_id; live transactions only.
        self._txns = {}
        self._dead = set()
        self.deadlocks_found = 0
        # fault injection: txns reclaimed because their client crashed
        self._swept = set()
        self._injector = None
        self._sweep_interval = None
        self.crash_reclaims = 0

    # -- fault recovery --------------------------------------------------------

    def enable_fault_recovery(self, injector, rto, chain_timeout,
                              sweep_interval):
        """Periodically reclaim locks held or awaited by transactions whose
        client site is crashed — without this every item a dead client
        touched would stay locked forever. Deterministic: the failure
        detector reads the spec's static crash windows."""
        self._injector = injector
        self._sweep_interval = sweep_interval
        self.sim.call_later(sweep_interval, self._crash_sweep)

    def _crash_sweep(self):
        now = self.sim.now
        crashed = [txn_id for txn_id, client_id in self._txns.items()
                   if self._injector.is_crashed(client_id, now)
                   and txn_id not in self._prepared]
        if crashed:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.row("crash.sweep", len(crashed))
        self._reclaim(crashed)
        # PREPARED transactions are in doubt, not dead: their locks must
        # survive the sweep; cooperative termination settles them.
        for txn_id in list(self._prepared):
            self._in_doubt(txn_id, now)
        self.sim.call_later(self._sweep_interval, self._crash_sweep)

    def _reclaim(self, txn_ids):
        """Take back everything transactions of dead clients hold or await
        (no decision or release can ever arrive for them). Two passes:
        first drop every such txn's queued requests so a release can never
        grant a lock to another dead transaction, then release what they
        hold."""
        for txn_id in txn_ids:
            self._swept.add(txn_id)
            self._dead.discard(txn_id)
            self.crash_reclaims += 1
            for grantee, item_id, mode in self.lock_table.drop_queued(txn_id):
                self._grant(grantee, item_id, mode)
        for txn_id in txn_ids:
            self._finish(txn_id)

    # -- message handlers ----------------------------------------------------

    def on_LockRequest(self, msg):
        if msg.txn_id in self._dead or msg.txn_id in self._swept:
            return  # request from a transaction this server already aborted
        if msg.txn_id not in self._txns:
            self._txns[msg.txn_id] = msg.client_id
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("lock.request", msg.txn_id, msg.item_id, msg.mode.name,
                       msg.client_id)
        state = self.lock_table.acquire(msg.txn_id, msg.item_id, msg.mode)
        if state is GRANTED:
            self._ship(msg.txn_id, msg.item_id, msg.mode, msg.vote_request)
            return
        if msg.vote_request:
            self._vote_wanted.add((msg.txn_id, msg.item_id))
        if tracer is not None:
            tracer.row("lock.queued", msg.txn_id, msg.item_id)
        self._detect_and_resolve(msg.txn_id)

    def on_CommitRelease(self, msg):
        if msg.txn_id in self._swept:
            # The commit raced the crash sweep and lost: the locks are gone
            # and the updates with them — without a recorded history commit
            # the transaction never counts as committed.
            return
        if msg.txn_id in self._dead:
            # Defensive: a victim cannot normally commit (victims are always
            # waiting), but if it happens the updates are discarded and the
            # locks finally released.
            self._dead.discard(msg.txn_id)
            self._finish(msg.txn_id)
            return
        self.install_updates(msg.updates)
        if msg.commit_time is not None:
            # Fault mode: the server is the commit point of record (see
            # CommitRelease). Stamped with the client's decision time.
            self.history.record_commit(msg.txn_id, time=msg.commit_time)
        self._finish(msg.txn_id)

    def on_AbortRelease(self, msg):
        # The aborted client finished rolling back: now the locks go.
        if self._prepared:
            # (only prepared transactions are ever in termination)
            if self._prepared.pop(msg.txn_id, None) is not None:
                self.twopc_aborts.add(msg.txn_id)
            self._end_termination(msg.txn_id)
        if msg.txn_id in self._swept:
            return
        self._dead.discard(msg.txn_id)
        self._finish(msg.txn_id)

    # -- cross-shard commit (TwoPhaseParticipant host) -----------------------

    def _can_prepare(self, txn_id):
        return (txn_id in self._txns and txn_id not in self._dead
                and txn_id not in self._swept)

    def on_CommitDecision(self, msg):
        txn_id = msg.txn_id
        staged = self._prepared.pop(txn_id, None)
        self._end_termination(txn_id)
        if txn_id in self._swept:
            # The locks were reclaimed by the crash sweep — only reachable
            # for an abort decision (prepared transactions are sweep-exempt).
            self.twopc_aborts.add(txn_id)
            return
        client_id = (staged.client_id if staged is not None
                     else self._txns.get(txn_id))
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("twopc.decision", txn_id, self.site_id, msg.commit)
        if msg.commit:
            if txn_id in self._txns:
                updates = (msg.updates if msg.updates is not None
                           else (staged.updates if staged is not None
                                 else {}))
                self.install_updates(updates or {})
                if msg.commit_time is not None:
                    # Fault mode: the participant is this shard's commit
                    # point of record, stamped with the decision time.
                    self.history.record_commit(txn_id,
                                               time=msg.commit_time)
                self.twopc_commits.add(txn_id)
        elif staged is not None or txn_id in self._txns:
            self.twopc_aborts.add(txn_id)
        self._dead.discard(txn_id)
        self._finish(txn_id)
        if msg.ack and client_id is not None:
            self._send_decision_ack(msg, client_id)

    def _outcome_status(self, txn_id):
        if txn_id in self.twopc_commits:
            return "committed"
        if txn_id in self._prepared:
            return "prepared"
        if (txn_id in self.twopc_aborts or txn_id in self._swept
                or txn_id in self._dead):
            return "aborted"
        return "unknown"

    def _settle(self, txn_id, staged, commit):
        if not commit:
            # Same shape as a sweep reclaim: the coordinator is dead.
            self._reclaim([txn_id])
            return
        if txn_id in self._txns:
            self.install_updates(staged.updates or {})
        # Idempotent set-add; the peer that saw the decision holds the
        # stamped commit time.
        self.history.record_commit(txn_id)
        self._finish(txn_id)

    # -- internals -----------------------------------------------------------

    def _finish(self, txn_id):
        if self._vote_wanted:
            self._vote_wanted = {mark for mark in self._vote_wanted
                                 if mark[0] != txn_id}
        self._txns.pop(txn_id, None)
        granted = self.lock_table.release_all(txn_id)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("lock.release", txn_id, len(granted))
        for grantee, item_id, mode in granted:
            self._grant(grantee, item_id, mode)

    def _grant(self, txn_id, item_id, mode):
        """A lock was granted from the queue; deliver it."""
        wanted = self._vote_wanted
        if wanted and (txn_id, item_id) in wanted:
            wanted.discard((txn_id, item_id))
            self._ship(txn_id, item_id, mode, vote=True)
        else:
            self._ship(txn_id, item_id, mode)

    def _ship(self, txn_id, item_id, mode, vote=False):
        """Ship the granted item (c-2PL recalls cached copies first).
        ``vote`` ("2pc-opt"): this is the transaction's last grant at this
        shard and doubles as its PREPARED vote."""
        client_id = self._txns[txn_id]
        item = self.store.read(item_id)
        env = self.send(client_id,
                        DataShip(txn_id=txn_id, item_id=item_id,
                                 version=item.version, value=item.value,
                                 mode=mode, vote=vote),
                        size=self.data_ship_size())
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("lock.grant", txn_id, item_id, mode.name)
            if vote:
                tracer.row("twopc.vote.piggyback", txn_id, self.site_id)
            tracer.round_charge(txn_id, "grant", shard=self.shard_tag)
            tracer.wire_charge(txn_id, env)

    def stats(self):
        stats = super().stats()
        stats["deadlocks_found"] = self.deadlocks_found
        if self._injector is not None:  # the crash sweep is armed
            stats["crash_reclaims"] = self.crash_reclaims
        return stats

    def queue_depth(self):
        """Total queued (waiting) lock requests — a contention gauge."""
        return self.lock_table.total_waiters()

    def _waits_for(self, txn):
        """Every transaction ``txn`` waits for, in no particular order: its
        wait-for successors (c-2PL adds its callback busy edges)."""
        return self.lock_table.waits_for(txn)

    def _can_be_waited_on(self, txn):
        """Could any wait edge point at ``txn``? False is exact; True may
        overstate (c-2PL adds its busy edges)."""
        return self.lock_table.can_be_waited_on(txn)

    def _find_cycle_from(self, requester):
        """The wait-for cycle through ``requester`` (first == last) a traced
        deadlock names, or None: successors expanded in the pinned
        :func:`~repro.locking.waitfor.expansion_order`, so a trace names
        the same cycle on every run."""
        return name_cycle(requester, self._waits_for)

    def _closes_cycle(self, requester):
        """Does a wait-for cycle run through ``requester``?

        No wait-for graph is built: successors come from the lock table's
        wait index, unordered, only for transactions the search reaches.
        Detection runs on every request that queues and mostly finds
        nothing, so the search is skipped when no wait edge can point at
        ``requester``. That prune is exact: a cycle needs an edge into it.
        """
        return self._can_be_waited_on(requester) and find_cycle_through(
            requester, self._waits_for) is not None

    def _detect_and_resolve(self, requester):
        """Abort ``requester`` if its request closed a wait-for cycle: the
        one victim that clears every cycle through it. Only a traced
        deadlock pays for naming its cycle."""
        if not self._closes_cycle(requester):
            return
        self.deadlocks_found += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("lock.deadlock", requester,
                       len(set(self._find_cycle_from(requester))))
        self._abort(requester, reason="deadlock")

    def _abort(self, txn_id, reason):
        """Choose ``txn_id`` as a deadlock victim.

        Its wait edges disappear immediately (queued requests dropped), but
        its *held* locks are released only when the client has rolled back
        and its abort-release round trip completes — the same shape as a
        commit release. (Victims are always waiting transactions: every
        member of a wait-for cycle waits for someone.)
        """
        client_id = self._txns[txn_id]
        self._dead.add(txn_id)
        self.aborts_initiated += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("txn.abort", txn_id, reason)
        for grantee, item_id, mode in self.lock_table.drop_queued(txn_id):
            self._grant(grantee, item_id, mode)
        env = self.send(client_id, AbortNotice(txn_id=txn_id, reason=reason),
                        size=CONTROL_SIZE)
        if tracer is not None:
            # The victim blocks (on a lock it will never get) until this
            # notice lands: its wire time is abort-resolution, not generic
            # network. Only aborted records carry the charge, so committed
            # summary sums are untouched.
            tracer.wire_charge(txn_id, env, phase="abort")


class S2PLClient(TwoPhaseCoordinator, ProtocolClient):
    """A client site running strict 2PL transactions; with a ``shard_map``
    it routes per item and coordinates the cross-shard commit. c-2PL and
    2V-2PL run this loop through the hooks below: None here, so an s-2PL
    operation pays a ``None`` check and no call."""

    #: c-2PL: ``(txn_id, op)`` -> the version a cached copy serves ``op``
    #: with, or None to request the lock
    _local_read = None
    #: 2V-2PL: ``(txn, updates)`` -> a generator run in place of the
    #: commit release that commits or aborts ``txn`` (its certification)
    _commit_round = None
    #: c-2PL: ``(txn, updates, read_items)``, once the release is sent
    _after_release = None

    def __init__(self, sim, client_id, config, history, shard_map=None):
        super().__init__(sim, client_id, config, history, shard_map=shard_map)
        self._init_coordinator()
        self._active = {}        # txn_id -> Transaction
        self._grant_events = {}  # txn_id -> (Event, requested_at, think)
        self._abort_flags = {}   # txn_id -> AbortNotice arriving off-wait
        # "2pc-opt": ask each shard to vote with its last lock grant
        self._votes_ride_grants = (shard_map is not None
                                   and config.commit_protocol == "2pc-opt")

    def reset_protocol_state(self):
        self._active.clear()
        self._grant_events.clear()
        self._abort_flags.clear()
        self._vote_state.clear()
        self._ack_state.clear()

    # -- message handlers ----------------------------------------------------

    def on_DataShip(self, msg):
        if msg.txn_id not in self._active:
            return  # stale ship for an already-aborted transaction
        pending = self._grant_events.pop(msg.txn_id, None)
        if pending is not None:
            # one heap entry for grant + think: the coroutine wakes once
            event, requested_at, think_time = pending
            self.op_waits.append(self.sim.now - requested_at)
            event.succeed_after(think_time, msg)

    def on_AbortNotice(self, msg):
        if msg.txn_id not in self._active:
            return
        pending = self._grant_events.pop(msg.txn_id, None)
        if pending is not None:
            # same-timestamp hop kept: the continuation sends and records
            pending[0].succeed(msg)
        else:
            self._abort_flags[msg.txn_id] = msg

    # -- transaction execution ----------------------------------------------

    def execute(self, txn):
        """Process body: run one transaction to commit or abort."""
        start_time = self.sim.now
        txn_id = txn.txn_id
        self._active[txn_id] = txn
        updates = {}
        read_items = []
        # home server touched -> did its latest grant carry a prepare vote
        homes = {}
        try:
            if (yield from self._run_ops(txn, updates, read_items, homes)):
                # Every lock is held; run the commit protocol.
                if len(homes) > 1:
                    yield from self._commit_across(txn, updates, read_items,
                                                   homes)
                elif self._commit_round is None:
                    self._commit_at(homes, txn, updates, read_items)
                else:
                    yield from self._commit_round(txn, updates)
        finally:
            self._active.pop(txn_id, None)
            self._grant_events.pop(txn_id, None)
            self._abort_flags.pop(txn_id, None)
        end_time = self.sim.now
        if txn.running:  # pragma: no cover - commit path settles status
            raise AssertionError("transaction left running")
        # A committed transaction's release or decisions are already sent;
        # one that crashed awaiting decision acks ("commit-limbo") records
        # nothing, the participants' decision state being authoritative.
        if (txn.status is not COMMITTED
                and txn.abort_reason != "commit-limbo"):
            self.history.record_abort(txn_id)
            # A fail-stopped site sends nothing (the wire is severed
            # anyway; the servers' crash sweep reclaims the locks), and the
            # abort decisions of a refused 2PC already released every
            # participant's locks. Otherwise: roll back locally, then tell
            # every touched server to release the locks.
            if txn.abort_reason not in ("client-crash", "2pc-refused"):
                for target in sorted(homes) or (self.server_id,):
                    self.send(target, AbortRelease(txn_id=txn_id),
                              size=CONTROL_SIZE)
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.round_charge(txn_id, "release")
        if self._after_release is not None:
            self._after_release(txn, updates, read_items)
        return self.make_outcome(txn, start_time, end_time)

    def _run_ops(self, txn, updates, read_items, homes):
        """The growing phase; returns True once every operation ran and
        the transaction is ready to commit (it is aborted otherwise)."""
        sim = self.sim
        tracer = sim.tracer
        txn_id = txn.txn_id
        operations = txn.spec.operations
        vote_ops = ()
        if self.shard_map is None:
            # one home, known in advance: nothing to route per operation
            server_of = None
            home = SERVER_SITE_ID
            homes[home] = False
        else:
            server_of = self.shard_map.server_of
            if self._votes_ride_grants:
                last_at_home = {server_of(op.item_id): op
                                for op in operations}
                if len(last_at_home) > 1:
                    # Mark each home server's final request: its grant
                    # doubles as the shard's prepare vote. Single-home
                    # transactions commit with a plain release and need
                    # no votes.
                    vote_ops = tuple(last_at_home.values())
        local_read = self._local_read
        try:
            for op in operations:
                if local_read is not None and (
                        version := local_read(txn_id, op)) is not None:
                    # a cached read: the think time, and no round
                    yield sim.timeout(op.think_time)
                    if tracer is not None:
                        tracer.think_charge(txn_id, op.think_time)
                    notice = self._abort_flags.pop(txn_id, None)
                    if notice is not None:
                        txn.abort(notice.reason)
                        break
                    txn.ops_done += 1
                    self.history.record_access(txn_id, op.item_id, op.mode,
                                               version, sim.now)
                    continue
                if server_of is not None:
                    home = server_of(op.item_id)
                    homes[home] = False
                env = self.send(home,
                                LockRequest(txn_id=txn_id,
                                            item_id=op.item_id,
                                            mode=op.mode,
                                            client_id=self.client_id,
                                            vote_request=op in vote_ops),
                                size=CONTROL_SIZE)
                if tracer is not None:
                    tracer.round_charge(
                        txn_id, "request",
                        shard=home if server_of is not None else None)
                    tracer.wire_charge(txn_id, env)
                event = sim.event()
                self._grant_events[txn_id] = (event, sim.now, op.think_time)
                msg = yield event  # fires think_time after the grant
                if isinstance(msg, AbortNotice):
                    txn.abort(msg.reason)
                    break
                if msg.vote:
                    homes[home] = True
                if tracer is not None:
                    tracer.think_charge(txn_id, op.think_time)
                notice = self._abort_flags.pop(txn_id, None)
                if notice is not None:
                    txn.abort(notice.reason)
                    break
                txn.ops_done += 1
                if op.mode is WRITE:
                    new_version = msg.version + 1
                    updates[op.item_id] = f"t{txn_id}v{new_version}"
                    self.history.record_access(
                        txn_id, op.item_id, op.mode, new_version,
                        self.sim.now)
                else:
                    read_items.append(op.item_id)
                    self.history.record_access(
                        txn_id, op.item_id, op.mode, msg.version,
                        self.sim.now)
            else:
                return True
        except Interrupt:
            # The client site fail-stopped mid-transaction (fault
            # injection); the run's crash controller interrupted us.
            txn.abort("client-crash")

    def _commit_at(self, homes, txn, updates, read_items):
        """One home server: the ordinary strict-2PL commit round."""
        (home,) = homes or (SERVER_SITE_ID,)
        txn_id = txn.txn_id
        txn.commit()
        fault_mode = self.fault_mode
        if not fault_mode:
            # Under fault injection the release may be lost with the
            # client; the server records the commit when (and only when)
            # the release actually arrives.
            self.history.record_commit(txn_id, time=self.sim.now)
        self.send(home,
                  CommitRelease(
                      txn_id=txn_id, updates=updates,
                      read_items=tuple(read_items),
                      commit_time=self.sim.now if fault_mode else None),
                  size=CONTROL_SIZE
                  + len(updates) * DATA_ITEM_SIZE)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.round_charge(
                txn_id, "release",
                shard=home if self.shard_map is not None else None)

    def _commit_across(self, txn, updates, read_items, homes):
        """Several home servers: split the write and read sets per shard
        and run the atomic commit."""
        targets = sorted(homes)
        home_of = self.home_of
        updates_at = {target: {} for target in targets}
        for item_id, value in updates.items():
            updates_at[home_of(item_id)][item_id] = value
        reads_at = {target: [] for target in targets}
        for item_id in read_items:
            reads_at[home_of(item_id)].append(item_id)
        voted = None
        if self._votes_ride_grants:
            voted = {home for home, vote in homes.items() if vote}
        yield from self._two_phase_commit(txn, targets, updates_at,
                                          reads=reads_at, voted=voted)
