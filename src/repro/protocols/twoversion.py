"""Two-version (two-copy) 2PL: the §3.4 comparison point (ablation A7).

With MR1W "the g-2PL protocol ... behaves similar to the two-copy version
s-2PL protocol [21] which allows more concurrency than the standard s-2PL
protocol". Two-version 2PL (Bernstein/Hadzilacos/Goodman, ch. 5) is s-2PL
with one more lock rule, and runs as exactly that: the s-2PL server and
client on :mod:`repro.locking.two_version`'s lock table. Readers read the
committed copy while a writer prepares the next. A commit is a request
the server certifies: each written item's write lock becomes a certify
lock, which waits for the item's readers and can deadlock like any wait
(a refused commit aborts); then the versions are installed, every lock
released and the ack sent. Writers' *commits* so serialize behind the
readers — MR1W's "release updates after the readers" at the server — and
the response time includes the commit round trip.
"""

from heapq import heappop, heappush
from itertools import count

from repro.locking.modes import LockMode
from repro.locking.two_version import TwoVersionLockTable
from repro.protocols.base import ProtocolServer
from repro.protocols.messages import (
    AbortNotice,
    CommitAck,
    CommitRelease,
    CONTROL_SIZE,
    DATA_ITEM_SIZE,
)
from repro.protocols.s2pl import S2PLClient, S2PLServer

CERTIFY = LockMode.CERTIFY


class TwoVersionServer(S2PLServer):
    """The s-2PL server on a two-version lock table, with certified
    commits: requests, grants, deadlock detection and aborts are s-2PL's;
    a commit request certifies and is acknowledged here."""

    # No crash recovery (the registry row rejects crash faults): under
    # message faults the server arms no sweep and reports no reclaims.
    enable_fault_recovery = ProtocolServer.enable_fault_recovery

    def __init__(self, sim, config, store, history):
        super().__init__(sim, config, store, history)
        self.lock_table = TwoVersionLockTable()
        self._certifying = {}  # txn -> [arrival, updates, queued certifies]
        self._certified = []   # heap of (arrival, txn) with all granted
        self._arrivals = count()

    def on_CommitRelease(self, msg):
        """A commit *request*: certify the written items, then finalise."""
        txn_id = msg.txn_id
        if txn_id in self._dead:
            return
        queued = self.lock_table.certify(txn_id, msg.updates)
        if not queued:
            self._finalise(txn_id, msg.updates)
            return
        self._certifying[txn_id] = [next(self._arrivals), msg.updates, queued]
        self._detect_and_resolve(txn_id)

    def _grant(self, txn_id, item_id, mode):
        if mode is not CERTIFY:
            return self._ship(txn_id, item_id, mode)
        pending = self._certifying[txn_id]
        pending[2] -= 1
        if not pending[2]:
            heappush(self._certified, (pending[0], txn_id))

    def _finish(self, txn_id):
        """Release, ship what the release granted, then finalise each
        certification it completed, oldest commit request first; each
        one's own release may complete more, finalised inside it."""
        self._certifying.pop(txn_id, None)
        super()._finish(txn_id)
        certified = self._certified
        while certified:
            _arrival, txn = heappop(certified)
            self._finalise(txn, self._certifying.pop(txn)[1])

    def _finalise(self, txn_id, updates):
        """Every certify lock is held: install, release, acknowledge."""
        self.install_updates(updates)
        if self.fault_mode:
            # the commit point: a retransmitted ack can land after the
            # next writer's access, so only this stamp keeps it strict
            self.history.record_commit(txn_id, time=self.sim.now)
        client_id = self._txns.get(txn_id)
        self._finish(txn_id)
        if client_id is not None:
            env = self.send(client_id, CommitAck(txn_id=txn_id),
                            size=CONTROL_SIZE)
            tracer = self.sim.tracer
            if tracer is not None:
                # the certify round's second half: coordination wire
                tracer.round_charge(txn_id, "commit_ack")
                tracer.wire_charge(txn_id, env, phase="commit")


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
