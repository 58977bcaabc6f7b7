"""Cross-shard atomic commit: the 2PC machinery both protocol families host.

The item space is partitioned across N home servers (see
:mod:`repro.protocols.sharding`); clients route every item-scoped message
to the owning server. Sharding is not a second deployment of the
protocols: :class:`~repro.protocols.s2pl.S2PLServer` /
:class:`~repro.protocols.g2pl.G2PLServer` and their clients take a
``shard_map`` and run one shard exactly as they run a whole database
(``shard_map=None``, the single-server degenerate case). This module
holds what is *only* about several servers — the atomic commit protocol a
transaction needs once it spans more than one of them — as two mixins the
family classes inherit:

* :class:`TwoPhaseParticipant` (servers): stage on PrepareRequest, vote,
  and — when the coordinator dies between prepare and decision — settle
  the in-doubt transaction by cooperative termination.
* :class:`TwoPhaseCoordinator` (clients): the one prepare -> vote ->
  decide -> ack sequence, :meth:`TwoPhaseCoordinator._two_phase_commit`,
  which each family calls with its own payloads.

How the families use it:

* **s-2PL + classic 2PC** (``commit_protocol="2pc"``) — the client (the
  coordinator; it already holds every lock at commit time) sends each
  participant a PrepareRequest staging that shard's updates, collects the
  votes, and fans out the CommitDecision. Two extra sequential rounds per
  cross-shard transaction: ``2m + 3`` instead of ``2m + 1``.

* **s-2PL + piggybacked votes** (``commit_protocol="2pc-opt"``) — the
  client marks its *last* lock request at each shard; the grant doubles as
  the shard's PREPARED vote (granting the final lock is consenting to
  commit — strict 2PL holds it to commit point either way). The decision
  then carries each shard's updates, collapsing prepare into the growing
  phase: ``2m + 1`` rounds again, the round-optimized variant the paper's
  latency argument suggests.

* **g-2PL** (and ``hybrid`` on its chassis) — the commit
  point is client-local (once every item is granted, nothing can abort
  the transaction), so the non-fault sharded path needs *no* commit
  messages at all: the existing TxnDone notification simply fans out to
  every touched server. Only under fault injection — where the commit
  point must be made durable before the client may die — does g-2PL run a
  2PC over the touched servers, each staging the transaction's **full**
  writes map so that any single surviving participant can answer a
  termination query authoritatively.

**Coordinator crash** (fault mode, classic 2PC): a participant stuck with
a PREPARED transaction must not reclaim its locks (the transaction may be
committed elsewhere) nor hold them forever. The host's crash recovery
(s-2PL's sweep; the chain repair of g-2PL and of ``hybrid``) asks
:meth:`TwoPhaseParticipant._in_doubt` before touching a transaction and
leaves the prepared ones to
*cooperative termination*: query every other participant; any "committed"
answer commits, and once every peer has answered without one, the
transaction is presumed aborted — sound because the coordinator decides
commit only after every vote, and a decision it sent before dying was
either delivered pre-crash (the peer answers "committed") or lost with
it. ``2pc-opt`` is rejected in combination with crash faults: its
decisions carry the updates, so a participant could learn the outcome but
not the data.
"""

from types import MappingProxyType

from repro.protocols.messages import (
    CommitDecision,
    CONTROL_SIZE,
    DATA_ITEM_SIZE,
    DecisionAck,
    OutcomeQuery,
    OutcomeReply,
    PrepareRequest,
    PrepareVote,
)
from repro.sim.errors import Interrupt


class _PreparedTxn:
    """A participant's staging record for an in-doubt transaction."""

    __slots__ = ("client_id", "participants", "updates", "prepared_at")

    def __init__(self, client_id, participants, updates, prepared_at):
        self.client_id = client_id
        self.participants = participants
        self.updates = updates
        self.prepared_at = prepared_at


class TwoPhaseParticipant:
    """Participant-side 2PC machinery, mixed into the family servers.

    The host provides three hooks: ``_can_prepare(txn_id)`` (is the
    transaction alive here, so this shard may promise to commit it),
    ``_outcome_status(txn_id)`` (this shard's view of a transaction, for a
    peer's termination query) and ``_settle(txn_id, staged, commit)`` (the
    protocol-specific way to apply a termination verdict). It also handles
    CommitDecision itself — what a decision installs and releases is the
    family's business.
    """

    #: A single server never stages anything and carries none of the
    #: participant's state; its recovery paths, which ask "is anything
    #: prepared here?" before touching a transaction, read this.
    _prepared = MappingProxyType({})

    def _init_participant(self):
        if self.shard_map is None:
            return
        self._prepared = {}       # txn_id -> _PreparedTxn
        self._terminating = set()
        self._term_replies = {}   # txn_id -> {peer site id: status}
        # Permanent outcome record, also the termination oracle: a late
        # query about a long-finished transaction still gets the truth.
        self.twopc_commits = set()
        self.twopc_aborts = set()
        self.terminations_started = 0
        self.presumed_aborts = 0

    def stats(self):
        """Adds the participant's counters in a sharded deployment; the
        outcome sets unite across shards, so a transaction counts once."""
        stats = super().stats()
        if self.shard_map is not None:
            stats["twopc_commits"] = self.twopc_commits
            stats["twopc_aborts"] = self.twopc_aborts
            stats["presumed_aborts"] = self.presumed_aborts
            if self.fault_mode:
                stats["terminations_started"] = self.terminations_started
        return stats

    def on_PrepareRequest(self, msg):
        txn_id = msg.txn_id
        vote = self._can_prepare(txn_id)
        if vote:
            self._prepared[txn_id] = _PreparedTxn(
                client_id=msg.client_id,
                participants=tuple(msg.participants),
                updates=dict(msg.updates),
                prepared_at=self.sim.now)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("twopc.prepare", txn_id, self.site_id, vote)
        env = self.send(msg.client_id,
                        PrepareVote(txn_id=txn_id, vote=vote,
                                    charge=msg.charge),
                        size=CONTROL_SIZE)
        if tracer is not None:
            tracer.round_charge(
                txn_id, "vote" if msg.charge else "vote_concurrent",
                shard=self.shard_tag)
            if msg.charge:
                tracer.wire_charge(txn_id, env, phase="commit")

    def _send_decision_ack(self, msg, client_id):
        tracer = self.sim.tracer
        env = self.send(client_id,
                        DecisionAck(txn_id=msg.txn_id, charge=msg.charge),
                        size=CONTROL_SIZE)
        if tracer is not None:
            tracer.round_charge(
                msg.txn_id,
                "commit_ack" if msg.charge else "commit_ack_concurrent",
                shard=self.shard_tag)
            if msg.charge:
                tracer.wire_charge(msg.txn_id, env, phase="commit")

    # -- cooperative termination ----------------------------------------------

    def _in_doubt(self, txn_id, now):
        """Is ``txn_id`` PREPARED here with its coordinator crashed since?
        Such a transaction is in doubt, not dead: crash recovery must leave
        it alone, and the first caller to ask starts its termination."""
        staged = self._prepared.get(txn_id)
        if staged is None or not self._injector.crashed_during(
                staged.client_id, staged.prepared_at, now):
            return False
        if txn_id not in self._terminating:
            self._start_termination(txn_id)
        return True

    def _start_termination(self, txn_id):
        staged = self._prepared.get(txn_id)
        if staged is None:
            return
        peers = [p for p in staged.participants if p != self.site_id]
        if not peers:
            # Degenerate single-participant prepare: presume abort.
            self.presumed_aborts += 1
            self._terminate(txn_id, commit=False)
            return
        self.terminations_started += 1
        self._terminating.add(txn_id)
        self._term_replies[txn_id] = {}
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("twopc.terminate", txn_id, self.site_id, len(peers))
        for peer in peers:
            self.send(peer,
                      OutcomeQuery(txn_id=txn_id, from_shard=self.site_id),
                      size=CONTROL_SIZE)

    def on_OutcomeQuery(self, msg):
        self.send(msg.from_shard,
                  OutcomeReply(txn_id=msg.txn_id, shard=self.site_id,
                               status=self._outcome_status(msg.txn_id)),
                  size=CONTROL_SIZE)

    def on_OutcomeReply(self, msg):
        txn_id = msg.txn_id
        if txn_id not in self._terminating:
            return
        replies = self._term_replies.setdefault(txn_id, {})
        replies[msg.shard] = msg.status
        if msg.status == "committed":
            self._end_termination(txn_id)
            self._terminate(txn_id, commit=True)
            return
        staged = self._prepared.get(txn_id)
        if staged is None:
            self._end_termination(txn_id)
            return
        peers = {p for p in staged.participants if p != self.site_id}
        if peers <= set(replies):
            # Every peer answered and none committed. The coordinator
            # decides commit only after all votes, and a commit decision
            # it sent before dying was either delivered pre-crash (that
            # peer would have answered "committed") or severed with it —
            # presuming abort can never contradict a recorded commit.
            self._end_termination(txn_id)
            self.presumed_aborts += 1
            self._terminate(txn_id, commit=False)

    def _end_termination(self, txn_id):
        self._terminating.discard(txn_id)
        self._term_replies.pop(txn_id, None)

    def _terminate(self, txn_id, commit):
        """Termination reached a verdict: record it, let the host apply it."""
        staged = self._prepared.pop(txn_id, None)
        if staged is None:
            return
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("twopc.terminate.commit" if commit
                       else "twopc.terminate.abort", txn_id, self.site_id)
        (self.twopc_commits if commit else self.twopc_aborts).add(txn_id)
        self._settle(txn_id, staged, commit)


class TwoPhaseCoordinator:
    """Coordinator-side (client) 2PC: the message sequence and the
    vote/ack collection behind it."""

    def _init_coordinator(self):
        self._vote_state = {}  # txn_id -> {"need", "got", "refused", "event"}
        self._ack_state = {}   # txn_id -> {"need", "got", "event"}

    def on_PrepareVote(self, msg):
        state = self._vote_state.get(msg.txn_id)
        if state is None:
            return
        state["got"] += 1
        if not msg.vote:
            state["refused"] = True
        if state["got"] >= state["need"] and not state["event"].triggered:
            state["event"].succeed(state)

    def on_DecisionAck(self, msg):
        state = self._ack_state.get(msg.txn_id)
        if state is None:
            return
        state["got"] += 1
        if state["got"] >= state["need"] and not state["event"].triggered:
            state["event"].succeed(state)

    def _two_phase_commit(self, txn, targets, updates, reads=None,
                          voted=None, in_doubt="client-crash"):
        """Prepare -> vote -> decide -> ack over ``targets``; leaves
        ``txn`` committed or aborted.

        ``targets`` are the participant home servers in send order;
        ``updates[target]`` is what that participant installs on commit
        and ``reads[target]`` (optional) what the transaction read there.
        ``voted`` is ``None`` for the classic protocol. Under "2pc-opt"
        it is the set of targets whose PREPARED vote already rode a lock
        grant: all grants have arrived, so the vote set is complete, the
        prepare round is skipped, and the decision carries the updates
        nothing staged. ``in_doubt`` is the abort reason when the
        coordinator crashes between prepare and decision (the
        participants then resolve via cooperative termination).
        """
        tracer = self.sim.tracer
        txn_id = txn.txn_id
        fault_mode = self.fault_mode
        if voted is not None:
            ok = voted.issuperset(targets)
        else:
            state = {"need": len(targets), "got": 0, "refused": False,
                     "event": self.sim.event()}
            self._vote_state[txn_id] = state
            for index, target in enumerate(targets):
                env = self.send(
                    target,
                    PrepareRequest(txn_id=txn_id, client_id=self.client_id,
                                   updates=updates[target],
                                   read_items=(tuple(reads[target])
                                               if reads else ()),
                                   participants=tuple(targets),
                                   charge=index == 0),
                    size=CONTROL_SIZE + len(updates[target]) * DATA_ITEM_SIZE)
                if tracer is not None and index == 0:
                    tracer.wire_charge(txn_id, env, phase="commit")
            if tracer is not None:
                tracer.round_charge(txn_id, "prepare")
            try:
                yield state["event"]
            except Interrupt:
                txn.abort(in_doubt)
                return
            finally:
                self._vote_state.pop(txn_id, None)
            ok = not state["refused"]
        decision_time = self.sim.now
        want_acks = fault_mode and ok
        if not ok:
            txn.abort("2pc-refused")
        if want_acks:
            ack_state = {"need": len(targets), "got": 0,
                         "event": self.sim.event()}
            self._ack_state[txn_id] = ack_state
        for index, target in enumerate(targets):
            payload = updates[target] if (ok and voted is not None) else None
            env = self.send(
                target,
                CommitDecision(txn_id=txn_id, commit=ok, updates=payload,
                               commit_time=(decision_time
                                            if ok and fault_mode else None),
                               ack=want_acks, charge=index == 0),
                size=CONTROL_SIZE
                + (len(payload) * DATA_ITEM_SIZE if payload else 0))
            # The decision flight is only *awaited* (and thus chargeable
            # wire time) when acks are requested; in non-fault mode the
            # coordinator commits fire-and-forget, so charging it would
            # overstate response-time wire by one flight and drive the
            # lock_wait residual negative.
            if tracer is not None and index == 0 and want_acks:
                tracer.wire_charge(txn_id, env, phase="commit")
        if tracer is not None:
            tracer.round_charge(txn_id, "decide")
        if not ok:
            return
        if want_acks:
            # The commit only counts once every participant has durably
            # decided — otherwise a crash here could leave a shard that
            # terminates to presumed-abort against a recorded commit.
            try:
                yield ack_state["event"]
            except Interrupt:
                txn.abort("commit-limbo")
                return
            finally:
                self._ack_state.pop(txn_id, None)
        txn.commit()
        if not fault_mode:
            # Fault mode: each participant recorded the commit when the
            # decision (stamped with ``decision_time``) arrived.
            self.history.record_commit(txn_id, time=decision_time)
