"""Shared helpers for protocol-level tests: hand-built micro scenarios."""

import dataclasses
import itertools
import json
from collections import OrderedDict, defaultdict, deque

import pytest

from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.crossover import find_crossover
from repro.analysis.report import _block
from repro.analysis.tables import (
    render_experiment,
    render_pairs,
    render_rounds_table,
)
from repro.core import experiments as exp
from repro.core.config import SimulationConfig
from repro.locking.modes import LockMode
from repro.locking.waitfor import (
    find_any_cycle,
    find_cycle_through,
    name_cycle,
)
from repro.network.presets import NetworkEnvironment
from repro.network.reliable import ACK_SIZE, Reliable, ReliableAck
from repro.network.topology import UniformTopology
from repro.network.transport import Network
from repro.obs.summary import NON_SEQUENTIAL_ROUND_KINDS
from repro.obs.tracer import Tracer, _TxnAcc
from repro.obs.rounds import round_table, run_worked_example
from repro.perf.goldens import GOLDEN_CELLS
from repro.protocols import registry
from repro.protocols.base import ProtocolServer
from repro.protocols.messages import (
    AbortNotice,
    CommitAck,
    CONTROL_SIZE,
    DataShip,
)
from repro.protocols.registry import make_protocol
from repro.protocols.transaction import Transaction
from repro.sim.engine import Simulator
from repro.storage.store import VersionedStore
from repro.validate.history import HistoryRecorder
from repro.workload.population import PopulationDriver
from repro.workload.spec import Operation, TransactionSpec

R, W = LockMode.READ, LockMode.WRITE

#: the golden cells that run with tracing on, for tests of the trace itself
TRACED_GOLDEN_CELLS = sorted(name for name, (kwargs, _) in GOLDEN_CELLS.items()
                             if kwargs.get("trace"))

# -- the capability battery (tests/test_capabilities.py) ---------------------

BATTERY_FAULTS = {"clean": None, "lossy": "loss=0.05,dup=0.02",
                  "crash": "loss=0.02,crash=2@300:900"}

#: (n_shards, cross_shard_probability, id suffix): one shard, three shards
#: mixing local and cross-shard transactions under the paper's rule, and
#: three shards on local partitions ("-lp": every transaction stays on one
#: shard, so 2PC only ever runs its single-participant path)
DEPLOYMENTS = ((1, None, ""), (3, 0.5, ""), (3, 0.0, "-lp"))

#: users per client site (id suffix "-popn"), or None for the paper's
#: closed-loop terminals (no suffix); the population's arrival rate keeps
#: several transactions in flight at a site
USERS_PER_SITE = (None, 4)

BATTERY = [
    pytest.param(protocol, n_shards, faults, commit, cross, users,
                 id=f"{protocol}-{n_shards}sh-{faults}-{commit}{suffix}"
                    f"{'' if users is None else '-popn'}")
    for protocol, (n_shards, cross, suffix), faults, commit, users
    in itertools.product(registry.available_protocols(), DEPLOYMENTS,
                         BATTERY_FAULTS, ("2pc", "2pc-opt"), USERS_PER_SITE)]


def battery_rejection(protocol, n_shards, faults, commit, users):
    """The battery's own reading of the table: the name of a rule that
    must reject the cell, or None when it must run."""
    row = registry.PROTOCOLS[protocol]
    if n_shards > 1 and not row.shardable:
        return "single-server-protocol"
    if faults == "crash" and users is not None:
        return "crash-with-population"
    if faults == "crash" and not row.crash_recovery:
        return "crash-without-recovery"
    if faults == "crash" and n_shards > 1 and commit == "2pc-opt":
        return "crash-with-2pc-opt"
    return None


def battery_keywords(protocol, n_shards, faults, commit, cross, users):
    """The ``SimulationConfig`` keywords of one battery cell: 48
    transactions, history recorded."""
    keywords = dict(
        protocol=protocol, n_clients=6, n_items=12, n_shards=n_shards,
        n_regions=n_shards, commit_protocol=commit,
        faults=BATTERY_FAULTS[faults], network_latency=40.0,
        intra_region_latency=1.0, read_probability=0.5,
        total_transactions=48, warmup_transactions=0, record_history=True,
        cross_shard_probability=cross)
    if users is not None:
        # Admission capped at the site's users refuses nothing a busy
        # user would not skip anyway, but a site whose users all stall
        # then sleeps, so a stall fails the run instead of arriving
        # forever.
        keywords.update(population=6 * users, arrival_rate=0.01,
                        max_inflight_per_site=users)
    return keywords


#: the battery cells the table accepts
ACCEPTED_BATTERY = [
    cell for cell in BATTERY
    if battery_rejection(*cell.values[:4], cell.values[5]) is None]


def holders(table, item):
    """``txn -> mode`` of the lock table's holders of ``item``."""
    lock = table._items.get(item)
    return dict(lock.holders) if lock else {}


def waiters(table, item):
    """``[(txn, mode)]`` queued on ``item``, in FIFO order."""
    lock = table._items.get(item)
    return list(lock.queue) if lock else []


def held_items(table, txn):
    """``item -> mode`` of every lock ``txn`` holds."""
    return dict(table._held_by_txn.get(txn, {}))


def blockers_of(table, txn, item):
    """The transactions ``txn``'s queued request on ``item`` waits for,
    as the table's cached wait edges hold them."""
    lock = table._items.get(item)
    return lock.wait_edges().get(txn, frozenset()) if lock else frozenset()


def brute_force_blockers(table, item):
    """``waiter -> set(blockers)`` on ``item``, from the table's public
    queue view only: the holders and earlier-queued requests its mode
    conflicts with, never itself. The reference the lock table's cached
    wait edges are tested against."""
    held = holders(table, item)
    ahead, edges = [], {}
    for txn, mode in waiters(table, item):
        edges[txn] = {other for other, other_mode
                      in list(held.items()) + ahead
                      if not (mode is other_mode is LockMode.READ)} - {txn}
        ahead.append((txn, mode))
    return edges


def brute_force_wait_edges(table):
    """The table's whole wait-for graph, ``waiter -> set(blockers)``."""
    union = {}
    for item in list(table._items):
        for txn, blockers in brute_force_blockers(table, item).items():
            union.setdefault(txn, set()).update(blockers)
    return union


class WaitForGraph:
    """A materialised wait-for graph: edge waiter -> holder means "waiter
    waits for holder". The oracle the protocols' on-demand searches are
    tested against; no protocol builds one."""

    def __init__(self):
        self._out = {}

    def add_edge(self, waiter, holder):
        """Record that ``waiter`` waits for ``holder`` (self-edges ignored)."""
        if waiter == holder:
            return
        self._out.setdefault(waiter, set()).add(holder)

    def add_edges(self, waiter, holders):
        for holder in holders:
            self.add_edge(waiter, holder)

    def remove_edge(self, waiter, holder):
        edges = self._out.get(waiter)
        if edges is not None:
            edges.discard(holder)
            if not edges:
                del self._out[waiter]

    def remove_node(self, txn):
        """Drop ``txn`` and every edge touching it (commit/abort cleanup)."""
        self._out.pop(txn, None)
        empty = []
        for waiter, holders in self._out.items():
            holders.discard(txn)
            if not holders:
                empty.append(waiter)
        for waiter in empty:
            del self._out[waiter]

    def successors(self, txn):
        return set(self._out.get(txn, ()))

    @property
    def edge_count(self):
        return sum(len(holders) for holders in self._out.values())

    def find_cycle_from(self, start):
        """The cycle (first == last) through ``start`` a trace names, in
        the pinned expansion order, or None."""
        out = self._out
        return name_cycle(start, lambda txn: out.get(txn, ()))

    def find_any_cycle(self):
        """A cycle through the first node in ``repr`` order on one, or
        None."""
        return find_any_cycle(self._out, set(self._out))


def dfs_reaches(graph, u, v):
    """Is there a path of one or more edges from ``u`` to ``v`` in a
    precedence graph? A plain DFS over its out-edges, the oracle its
    one-walk ``reaches_any`` is tested against."""
    stack, seen = [u], set()
    while stack:
        for nxt in graph._out.get(stack.pop(), ()):
            if nxt == v:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


class MatrixTopology:
    """General per-pair latencies, e.g. clustered clients far from the
    server: a topology the network batteries build by hand.

    ``latencies`` maps ``(src, dst)`` to a delay; missing reverse pairs fall
    back to the forward entry (symmetric by default); otherwise ``default``
    applies.
    """

    def __init__(self, latencies, default=0.0):
        for pair, value in latencies.items():
            if value < 0:
                raise ValueError(f"negative latency {value!r} for pair {pair}")
        if default < 0:
            raise ValueError(f"negative default latency {default!r}")
        self._latencies = dict(latencies)
        self.default = default

    def latency(self, src, dst):
        if src == dst:
            return 0.0
        value = self._latencies.get((src, dst))
        if value is None:
            value = self._latencies.get((dst, src), self.default)
        return value

    def __repr__(self):
        return f"MatrixTopology({len(self._latencies)} pairs, default={self.default})"


def committed_reads(history):
    """The read records of ``history``'s committed transactions."""
    return [record for record in history.accesses
            if record.mode is LockMode.READ
            and record.txn_id in history.committed]


def spec(*ops, think=1.0):
    """Build a TransactionSpec from (item, mode) pairs."""
    return TransactionSpec(operations=tuple(
        Operation(item_id=item, mode=mode, think_time=think)
        for item, mode in ops))


class Harness:
    """A protocol instance wired to a network, with manual txn launching."""

    def __init__(self, protocol, n_clients=3, n_items=4, latency=10.0,
                 topology=None, shard_map=None, **config_overrides):
        defaults = dict(
            protocol=protocol, n_clients=n_clients, n_items=n_items,
            network_latency=latency, total_transactions=100,
            warmup_transactions=0, record_history=True)
        defaults.update(config_overrides)
        self.config = SimulationConfig(**defaults)
        self.sim = Simulator()
        self.history = HistoryRecorder()
        self.store = VersionedStore(range(n_items))
        self.network = Network(self.sim,
                               topology or UniformTopology(latency))
        client_ids = list(range(1, n_clients + 1))
        if shard_map is None:
            self.server, self.clients = make_protocol(
                protocol, self.sim, self.config, self.store, self.history,
                client_ids)
        else:
            # the sharded factory form, for a map that has one shard
            servers, self.clients = make_protocol(
                protocol, self.sim, self.config, {0: self.store},
                self.history, client_ids, shard_map=shard_map)
            self.server = servers[0]
        self.network.add_site(self.server)
        for client in self.clients.values():
            self.network.add_site(client)
        self._txn_counter = 0
        self.outcomes = {}

    def launch(self, client_id, txn_spec, delay=0.0, txn_id=None):
        """Start one transaction at ``client_id`` after ``delay``;
        returns the process (an awaitable event)."""
        if txn_id is None:
            self._txn_counter += 1
            txn_id = self._txn_counter

        def body():
            if delay:
                yield self.sim.timeout(delay)
            txn = Transaction(txn_id, client_id, txn_spec)
            outcome = yield self.sim.spawn(
                self.clients[client_id].execute(txn))
            self.outcomes[txn_id] = outcome
            return outcome

        return self.sim.spawn(body())

    def run(self, until=None):
        self.sim.run(until=until)
        return self.outcomes

    def check_serializable(self):
        from repro.validate.serializability import check_history

        report = check_history(self.history)
        assert report.ok, str(report)
        return report


class EagerPopulationDriver(PopulationDriver):
    """The population driver as it was before skip-ahead arrivals: an
    arrival-loop coroutine yielding one ``Timeout`` per arrival, admitted
    or refused. Reference implementation — the oracle the shipped driver
    is differentially tested against; it never sleeps, so there is
    nothing to replay and ``state`` is a plain read."""

    state = property(lambda self: self._state)

    def start(self):
        return [self.sim.spawn(self._arrival_loop())]

    def _arrival_loop(self):
        sim = self.sim
        control = self.control
        arrivals = self.arrivals
        while not control.done:
            when = arrivals.next_arrival(sim.now)
            yield sim.timeout(when - sim.now)
            if control.done:
                break
            self._on_arrival()

    def _run(self, user, txn):
        try:
            outcome = yield from self.protocol_client.execute(txn)
        finally:
            self._state.active.pop(user, None)
        if self.control.done:
            return
        self.collector.record_outcome(outcome)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.txn_finished(outcome, measured=self.collector.measuring)
        self.control.transaction_finished()


class _TwoVersionItem:
    """Two-version lock state of one item (for the reference server)."""

    __slots__ = ("readers", "writer", "certifying", "queue")

    def __init__(self):
        self.readers = OrderedDict()   # txn -> True (insertion order)
        self.writer = None             # txn holding the write lock
        self.certifying = None         # txn holding the certify lock
        self.queue = deque()           # (txn, mode) waiting

    @property
    def write_locked(self):
        return self.writer is not None or self.certifying is not None


class ReferenceTwoVersionServer(ProtocolServer):
    """The 2V-2PL server as it was before it ran on s-2PL's lock table: a
    lock manager of its own, whose release grants across every item in
    first-request order (reads before the write within an item) and then
    finalises pending certifications in arrival order. Reference
    implementation: the oracle ``TwoVersionServer`` is differentially
    tested against (``test_twoversion_protocol.py``)."""

    def __init__(self, sim, config, store, history):
        super().__init__(sim, config, store, history)
        self._items = {}
        self._txns = {}     # txn_id -> client_id
        self._dead = set()
        # txn -> {"updates": dict, "waiting_on": set(item_id)}
        self._certifications = {}
        self.deadlocks_found = 0

    def stats(self):
        stats = super().stats()
        stats["deadlocks_found"] = self.deadlocks_found
        return stats

    def _item(self, item_id):
        state = self._items.get(item_id)
        if state is None:
            state = self._items[item_id] = _TwoVersionItem()
        return state

    def on_LockRequest(self, msg):
        if msg.txn_id in self._dead:
            return
        self._txns.setdefault(msg.txn_id, msg.client_id)
        state = self._item(msg.item_id)
        if msg.mode is LockMode.READ:
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
        if msg.txn_id in self._dead:
            return
        waiting_on = set()
        for item_id in msg.updates:
            state = self._item(item_id)
            if state.writer != msg.txn_id:
                continue
            state.writer = None
            state.certifying = msg.txn_id
            if any(txn != msg.txn_id for txn in state.readers):
                waiting_on.add(item_id)
        self._certifications[msg.txn_id] = {
            "updates": dict(msg.updates), "waiting_on": waiting_on}
        if waiting_on:
            self._detect(msg.txn_id)
            if msg.txn_id in self._dead:
                return
        self._retry_certifications()

    def on_AbortRelease(self, msg):
        self._dead.discard(msg.txn_id)
        self._release_everything(msg.txn_id)

    def _ship(self, txn_id, item_id, mode):
        item = self.store.read(item_id)
        env = self.send(self._txns[txn_id],
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
            self.history.record_commit(txn_id, time=self.sim.now)
        client_id = self._txns.get(txn_id)
        self._release_everything(txn_id)
        if client_id is not None:
            env = self.send(client_id, CommitAck(txn_id=txn_id),
                            size=CONTROL_SIZE)
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.round_charge(txn_id, "commit_ack")
                tracer.wire_charge(txn_id, env, phase="commit")

    def _release_everything(self, txn_id):
        self._txns.pop(txn_id, None)
        self._certifications.pop(txn_id, None)
        for state in self._items.values():
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

    def _wait_edges(self):
        """``{waiter: set(blockers)}``: a queued request waits for the
        item's write/certify holder and (a write) the writes queued ahead
        of it, a pending certification for the other readers of what it
        wrote."""
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

    def _detect(self, requester):
        """Abort ``requester`` if its new wait closes a cycle (no prune:
        the edges are walked on every wait)."""
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
        pending = self._certifications.pop(txn_id, None)
        if pending is not None:
            # certify locks revert to write locks until the abort-release
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
            tracer.wire_charge(txn_id, env, phase="abort")


# The kernel's one-shot timer object from before tokens, kept verbatim
# for :class:`TimerReliableLink` alone.
class _Timer:
    """Run ``callback(*args)`` once, ``delay`` time units from creation,
    unless cancelled first."""

    __slots__ = ("sim", "callback", "args", "fire_at", "_cancelled",
                 "_fired", "_token")

    def __init__(self, sim, delay, callback, *args):
        if delay < 0:
            raise ValueError(f"negative timer delay {delay!r}")
        self.sim = sim
        self.callback = callback
        self.args = args
        self.fire_at = sim.now + delay
        self._cancelled = False
        self._fired = False
        self._token = sim.call_later_cancellable(delay, self._fire)

    def _fire(self):
        if self._cancelled:
            # Unreachable via the run loop (the token makes it skip), kept
            # for direct invocation and older engine implementations.
            return
        self._fired = True
        self.callback(*self.args)

    def cancel(self):
        """Disarm the timer; a no-op if it already fired."""
        self._cancelled = True
        self._token[0] = True

    @property
    def active(self):
        """True while the timer is armed and has neither fired nor been
        cancelled."""
        return not (self._cancelled or self._fired)

    def __repr__(self):
        state = ("cancelled" if self._cancelled
                 else "fired" if self._fired else "armed")
        return f"<Timer at={self.fire_at:g} {state}>"


class TimerReliableLink:
    """The reliable channel as it was before tokens: a ``Timer`` object
    per armed message, one ``_transmit`` for first transmissions and
    retransmissions alike, ``isinstance`` dispatch on receive. Reference
    implementation — the oracle :class:`repro.network.reliable.ReliableLink`
    is differentially tested against (its uncapped ``backoff ** attempt``
    included: it overflows at the 1,024th retransmission, which no
    differential scenario reaches)."""

    def __init__(self, sim, site, rto, backoff=2.0, max_interval=None):
        if rto <= 0:
            raise ValueError(f"rto must be positive, got {rto}")
        self.sim = sim
        self.site = site
        self.rto = rto
        self.backoff = backoff
        self.max_interval = max_interval if max_interval is not None \
            else 16.0 * rto
        self.incarnation = 0
        self._next_seq = 0
        self._pending = {}   # (dst, incarnation, seq) -> Timer
        self._seen = {}      # src -> set of (incarnation, seq)
        self.retransmissions = 0
        self.duplicates_suppressed = 0

    def send(self, dst, payload, size=1.0):
        seq = self._next_seq
        self._next_seq += 1
        wrapped = Reliable(inner=payload, seq=seq,
                           incarnation=self.incarnation)
        self._transmit((dst, self.incarnation, seq), dst, wrapped, size, 0)

    def _raw_send(self, dst, payload, size):
        self.site.network.send(self.site.site_id, dst, payload, size=size)

    def _transmit(self, key, dst, wrapped, size, attempt):
        if attempt > 0:
            if key not in self._pending:
                return
            self.retransmissions += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.net_retransmit(self.site.site_id, dst)
        self._raw_send(dst, wrapped, size)
        delay = min(self.rto * self.backoff ** attempt, self.max_interval)
        self._pending[key] = _Timer(self.sim, delay, self._transmit,
                                    key, dst, wrapped, size, attempt + 1)

    def on_receive(self, envelope):
        payload = envelope.payload
        if isinstance(payload, ReliableAck):
            timer = self._pending.pop(
                (envelope.src, payload.incarnation, payload.seq), None)
            if timer is not None:
                timer.cancel()
            return None
        if isinstance(payload, Reliable):
            self._raw_send(envelope.src,
                           ReliableAck(seq=payload.seq,
                                       incarnation=payload.incarnation),
                           ACK_SIZE)
            seen = self._seen.setdefault(envelope.src, set())
            tag = (payload.incarnation, payload.seq)
            if tag in seen:
                self.duplicates_suppressed += 1
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.net_dup_suppressed(self.site.site_id,
                                              envelope.src)
                return None
            seen.add(tag)
            return payload.inner
        return payload

    def crash(self):
        for timer in self._pending.values():
            timer.cancel()
        self._pending.clear()
        self._seen.clear()

    def restart(self):
        self.incarnation += 1
        self._next_seq = 0


def write_jsonl_per_row(path, trace, config=None, seed=None):
    """The JSONL writer as it was before the compiled one: a dict and a
    ``json.dumps`` per row. Reference implementation — the oracle
    :func:`repro.obs.export.write_jsonl` must match byte for byte."""
    summary = None
    if trace.summary is not None:
        # each of the summary's sums is a header key, <name>_sum
        summary = dataclasses.asdict(trace.summary)
        sums = summary.pop("sums")
        summary.update((f"{name}_sum", value) for name, value in sums.items())
    with open(path, "w", encoding="utf-8") as out:
        header = {"type": "header", "seed": seed,
                  "config": config.describe() if config is not None else None,
                  "summary": summary}
        out.write(json.dumps(header) + "\n")
        for time, kind, fields in trace.events:
            row = {"type": "event", "t": time, "kind": kind}
            row.update(fields)
            out.write(json.dumps(row) + "\n")
        for record in trace.txns:
            row = {"type": "txn"}
            row.update(record)
            out.write(json.dumps(row) + "\n")
        for time, name, value in trace.probes:
            out.write(json.dumps({"type": "probe", "t": time,
                                  "name": name, "value": value}) + "\n")
    return path


def _txn_record(acc, meta):
    """A finished transaction's record, built from its accumulator and its
    outcome ``meta`` as the tracer built every record before they went
    into columns."""
    sequential = sum(count for kind, count in acc.rounds.items()
                     if kind not in NON_SEQUENTIAL_ROUND_KINDS)
    explained = (acc.propagation + acc.transmission + acc.slack
                 + acc.client_think)
    record = {
        "txn": acc.txn_id,
        "client": acc.client_id,
        "rounds": dict(acc.rounds),
        "rounds_sequential": sequential,
        "propagation": acc.propagation,
        "transmission": acc.transmission,
        "slack": acc.slack,
        "client_think": acc.client_think,
        "commit_coord": acc.commit_coord,
        "abort_resolution": acc.abort_resolution,
        "overhead": acc.overhead,
        "lock_wait": meta["response"] - explained - acc.overhead,
    }
    if acc.shard_rounds:
        record["rounds_by_shard"] = {
            shard: dict(kinds) for shard, kinds in acc.shard_rounds.items()}
    record.update(meta)
    return record


def account_record(txn=1, response=100.0, propagation=40.0,
                   transmission=5.0, slack=1.0, client_think=20.0,
                   commit_coord=10.0, abort_resolution=0.0, overhead=0.0,
                   committed=True, rounds=None):
    """A synthetic finished, measured transaction record with every key a
    traced one has, its ``lock_wait`` the residual."""
    rounds = rounds or {}
    explained = propagation + transmission + slack + client_think
    return {
        "txn": txn, "client": 1, "rounds": rounds,
        "rounds_sequential": sum(rounds.values()),
        "propagation": propagation, "transmission": transmission,
        "slack": slack, "client_think": client_think,
        "commit_coord": commit_coord, "abort_resolution": abort_resolution,
        "overhead": overhead, "lock_wait": response - explained - overhead,
        "committed": committed, "measured": True, "start": 0.0,
        "end": response, "response": response, "n_ops": 1,
        "abort_reason": None,
    }


def partial_record(txn, rounds, client=1, **charges):
    """A live endpoint's partial record: every charge 0.0 but ``charges``."""
    return {"txn": txn, "client": client, "rounds": rounds,
            "propagation": 0.0, "transmission": 0.0, "slack": 0.0,
            "client_think": 0.0, "commit_coord": 0.0,
            "abort_resolution": 0.0, "overhead": 0.0, **charges}


def endpoint_payload(site, role, records=(), partials=(), history=None,
                     net=None):
    """A live endpoint's result payload with nothing in it but what is
    given (see :func:`repro.live.results.endpoint_payload`)."""
    history = history or {"accesses": [], "committed": [], "aborted": [],
                          "commit_times": {}}
    net = net or {"messages_sent": 0, "data_units_sent": 0.0,
                  "per_type": {}}
    return {"role": role, "site": site, "protocol": "s2pl",
            "mode": "calibrate",
            "txn_records": list(records), "partial_records": list(partials),
            "history": history, "net": net,
            "engine": {"processed_events": 0, "peak_heap_depth": 0,
                       "cancelled_events": 0, "end_time": 0.0}}


class DictPathTracer(Tracer):
    """The tracer as it kept transaction records before
    :class:`repro.obs.tracer.TxnLog`: a finished transaction's
    ``(accumulator, meta)`` pair in a dict by txn id (a late charge adds
    to that accumulator, a second finish replaces the pair in place), a
    :func:`_txn_record` dict per pair and per unfinished transaction, and
    ``finish`` summing the records one by one. Reference implementation —
    the oracle the columnar log must read back as, record for record,
    with the same summary."""

    def __init__(self, sim):
        super().__init__(sim)
        self._done = {}
        self._closed = []

    def _acc(self, txn_id):
        acc = self._live.get(txn_id)
        if acc is None:
            done = self._done.get(txn_id)
            if done is not None:
                return done[0]
            acc = self._live[txn_id] = _TxnAcc(txn_id)
        return acc

    def txn_finished(self, outcome, measured=True):
        acc = self._live.pop(outcome.txn_id, None)
        if acc is None:
            acc = _TxnAcc(outcome.txn_id)
        acc.client_id = outcome.client_id
        self._done[outcome.txn_id] = (acc, {
            "committed": outcome.committed,
            "measured": measured,
            "start": outcome.start_time,
            "end": outcome.end_time,
            "response": outcome.response_time,
            "n_ops": outcome.n_ops,
            "abort_reason": outcome.abort_reason,
        })
        self.row("txn.end", outcome.txn_id, outcome.client_id,
                 outcome.committed, outcome.response_time)

    def close(self):
        now = self.sim.now
        for acc in self._live.values():
            begin = acc.begin
            self._closed.append(_txn_record(acc, {
                "committed": False,
                "measured": False,
                "unfinished": True,
                "start": begin,
                "end": now,
                "response": now - begin if begin is not None else 0.0,
                "n_ops": None,
                "abort_reason": "unfinished",
            }))
        self._live.clear()
        return self._closed

    def finish(self, processed_events=0, peak_heap_depth=0):
        trace = super().finish(processed_events, peak_heap_depth)
        txns = [_txn_record(acc, meta) for acc, meta in self._done.values()]
        txns.extend(self._closed)
        summary = trace.summary
        for record in txns:
            if not record["measured"]:
                continue
            if record["committed"]:
                summary.committed += 1
                summary.rounds_total += record["rounds_sequential"]
                for kind, count in record["rounds"].items():
                    summary.rounds_by_kind[kind] = (
                        summary.rounds_by_kind.get(kind, 0) + count)
                for shard, kinds in record.get("rounds_by_shard",
                                               {}).items():
                    cell = summary.rounds_by_shard.setdefault(shard, {})
                    for kind, count in kinds.items():
                        cell[kind] = cell.get(kind, 0) + count
                summary.response_sum += record["response"]
                for name in ("propagation", "transmission", "slack",
                             "client_think", "commit_coord",
                             "abort_resolution", "overhead", "lock_wait"):
                    summary.sums[name] += record[name]
            else:
                summary.aborted += 1
        return dataclasses.replace(trace, txns=txns)


def _sample_items_by_sample(generator, rng, n_ops, pool=None):
    params = generator.params
    if params.access_skew != 0.0:
        return generator._sample_items(rng, n_ops, pool)
    if pool is None:
        return rng.sample(range(params.n_items), n_ops)
    return rng.sample(list(pool), n_ops)


def next_spec_by_methods(generator, client_id):
    """``WorkloadGenerator.next_spec`` as it was before its draws went
    through ``repro.sim.rng.below`` / ``sample_indices``: ``randint``,
    ``Random.sample``, ``uniform`` and keyword ``Operation``s. Reference
    implementation — the oracle the shipped draws must match spec for spec
    (the skewed path was never changed and is shared)."""
    params = generator.params
    rng = generator._txn_stream(client_id)
    n_ops = rng.randint(params.min_ops, params.max_ops)
    if params.cross_shard_probability is None:
        items = _sample_items_by_sample(generator, rng, n_ops)
    elif rng.random() < params.cross_shard_probability:
        items = _sample_items_by_sample(generator, rng, n_ops)
    else:
        pool = generator._home_pool(client_id)
        items = _sample_items_by_sample(generator, rng,
                                        min(n_ops, len(pool)), pool)
    operations = tuple(
        Operation(item_id=item,
                  mode=(LockMode.READ if rng.random() < params.read_probability
                        else LockMode.WRITE),
                  think_time=rng.uniform(params.think_min, params.think_max))
        for item in items)
    generator.generated += 1
    return TransactionSpec(operations=operations)


def open_next_spec_by_methods(generator):
    """``OpenArrivalGenerator.next_spec`` as it was before the same change:
    the reference its shipped twin must match spec for spec."""
    rng = generator._rng
    cls = generator._pick_class(rng)
    n_ops = rng.randint(cls.min_ops, cls.max_ops)
    items = generator.sampler.sample(rng, n_ops)
    params = generator.params
    operations = tuple(
        Operation(item_id=item,
                  mode=(LockMode.READ if rng.random() < cls.read_probability
                        else LockMode.WRITE),
                  think_time=rng.uniform(params.think_min, params.think_max))
        for item in items)
    generator.generated += 1
    generator.by_class[cls.name] += 1
    return TransactionSpec(operations=operations)


def report_figure_by_figure(fidelity="bench", seed=101, include_plots=True,
                            quick=False, jobs=1):
    """``generate_report`` as it was before one plan ran every figure: each
    figure function runs its own cells (shared cells run again), one pool
    per sweep at ``jobs>1``. Reference implementation — the oracle the
    planned report must equal byte for byte. Quick mode's Figure 10 runs
    its endpoints here too (it once ran all eight latencies)."""
    latencies = (1.0, 750.0) if quick else None
    read_probabilities = (0.0, 1.0) if quick else None
    clients = (10, 50) if quick else None
    sections = []

    def kw(**kwargs):
        return {k: v for k, v in kwargs.items() if v is not None}

    def render(result, improvement=True):
        parts = [render_experiment(
            result,
            improvement_between=("s2pl", "g2pl") if improvement
            and "s2pl" in result.series and "g2pl" in result.series
            else None)]
        if include_plots:
            parts.append(ascii_plot(result))
        return "\n\n".join(parts)

    sections.append(_block(
        "Table 1 — Simulation parameters",
        render_pairs("", exp.table1_parameters())))
    sections.append(_block(
        "Table 2 — Networking environments",
        render_pairs("", exp.table2_environments())))
    sections.append(_block(
        "Figure 1 — Worked example", str(run_worked_example())))
    sections.append(_block(
        "Round accounting — 3m vs 2m+1 (traced)",
        render_rounds_table(round_table(ms=(2, 4, 8)))))

    for pr in (0.0, 0.6, 1.0):
        results = exp.latency_sweep_experiment(
            pr, fidelity=fidelity, seed=seed, jobs=jobs,
            **kw(latencies=latencies))
        figure = {0.0: 2, 0.6: 3, 1.0: 4}[pr]
        sections.append(_block(
            f"Figure {figure} — response vs latency (pr={pr:g})",
            render(results["response"])))
        if pr == 0.6:
            sections.append(_block(
                "Figure 8 — aborts vs latency (pr=0.6)",
                render(results["aborts"], improvement=False)))

    for figure, env in ((5, NetworkEnvironment.SS_LAN),
                        (6, NetworkEnvironment.MAN),
                        (7, NetworkEnvironment.L_WAN)):
        result = exp.figure_response_vs_read_probability(
            env, fidelity=fidelity, seed=seed, jobs=jobs,
            **kw(read_probabilities=read_probabilities))
        crossover = find_crossover(result)
        body = render(result)
        body += (f"\n\nmeasured crossover: "
                 f"{crossover if crossover is None else round(crossover, 3)}")
        sections.append(_block(
            f"Figure {figure} — response vs read probability "
            f"({env.name})", body))

    result = exp.figure_aborts_vs_latency(0.8, fidelity=fidelity, seed=seed,
                                          jobs=jobs,
                                          **kw(latencies=latencies))
    sections.append(_block("Figure 9 — aborts vs latency (pr=0.8)",
                           render(result, improvement=False)))

    sections.append(_block(
        "Figure 10 — read-only deadlocks vs latency",
        render(exp.figure_readonly_aborts_vs_latency(
                   fidelity=fidelity, seed=seed, jobs=jobs,
                   **kw(latencies=(1, 100) if quick else None)),
               improvement=False)))
    sections.append(_block(
        "Figure 11 — aborts vs forward-list length",
        render(exp.figure_aborts_vs_fl_length(
                   fidelity=fidelity, seed=seed, jobs=jobs,
                   **kw(lengths=(1, 8) if quick else None)),
               improvement=False)))

    for pr, (fig_resp, fig_ab) in ((0.25, (12, 13)), (0.75, (14, 15))):
        results = exp.clients_sweep_experiment(
            pr, fidelity=fidelity, seed=seed, jobs=jobs,
            **kw(client_counts=clients))
        sections.append(_block(
            f"Figure {fig_resp} — response vs clients (pr={pr:g})",
            render(results["response"])))
        sections.append(_block(
            f"Figure {fig_ab} — aborts vs clients (pr={pr:g})",
            render(results["aborts"], improvement=False)))

    header = (f"# Reproduction report (fidelity: {fidelity}, seed {seed})\n")
    return header + "\n" + "\n".join(sections)
