"""Shared plumbing for protocol servers and clients."""

from array import array

from repro.network.topology import Site
from repro.protocols.messages import CONTROL_SIZE, DATA_ITEM_SIZE
from repro.protocols.transaction import TxnOutcome, TxnStatus

SERVER_SITE_ID = 0
COMMITTED = TxnStatus.COMMITTED


class _Dispatcher(Site):
    """A site that routes payloads to ``on_<PayloadClassName>`` methods.

    When a :class:`~repro.network.reliable.ReliableLink` is installed
    (fault injection), every outgoing protocol message is transparently
    wrapped for ack/retransmit and every incoming one is unwrapped and
    deduplicated — the ``on_*`` handlers never see loss or duplication,
    only (possibly large) delays.
    """

    #: Does this site play the server role? Protocol logic must branch on
    #: this, never on ``site_id == SERVER_SITE_ID`` — sharded deployments
    #: run home servers at other site ids.
    is_server = False
    #: The deployment's item -> home-server routing table; None means the
    #: single-server layout where every item lives at SERVER_SITE_ID. Like
    #: everything sharding adds, it is set on the instance only when
    #: sharded: a single server's instance stays what it was — g-2PL's
    #: 26 attributes stay under CPython's limit (30) for the inline-values
    #: fast path of attribute loads and method calls.
    shard_map = None
    #: Shard identity for per-shard round accounting (None = unsharded).
    shard_tag = None
    #: Is fault injection on for this run? Fixed per run, so it is read
    #: as an attribute on hot paths; like ``shard_map`` it is set on the
    #: instance (by the constructor) only when ``config.faults`` is set.
    fault_mode = False
    #: Probe series this site feeds, as ``(series name, name of a
    #: zero-argument method)`` pairs; multi-server runs report the sum.
    gauges = ()

    def __init__(self, site_id):
        super().__init__(site_id)
        self._handlers = {}
        self.reliable = None  # ReliableLink under fault injection

    def _handler_for(self, payload):
        handler = self._handlers.get(type(payload))
        if handler is None:
            name = f"on_{type(payload).__name__}"
            handler = getattr(self, name, None)
            if handler is None:
                raise TypeError(
                    f"{type(self).__name__} has no handler {name}")
            self._handlers[type(payload)] = handler
        return handler

    def send(self, dst, payload, size=1.0):
        if self.reliable is not None:
            return self.reliable.send(dst, payload, size=size)
        network = self.network
        if network is None:
            raise RuntimeError(
                f"site {self.site_id} is not attached to a network")
        return network.send(self.site_id, dst, payload, size=size)

    def receive(self, envelope):
        reliable = self.reliable
        if reliable is None:
            self._dispatch(envelope.payload)
            return
        payload = reliable.on_receive(envelope)
        if payload is not None:
            self._dispatch(payload)

    def _dispatch(self, payload):
        handler = self._handlers.get(payload.__class__)
        if handler is None:
            handler = self._handler_for(payload)
        handler(payload)


class ProtocolServer(_Dispatcher):
    """Base class for the data server of a protocol.

    Owns the versioned store, into which a commit installs its updates.
    The write-ahead log the paper assumes (§1) costs no simulated time and
    no server crash is modelled, so no log is kept. Message handling costs
    no server time (Table 1 charges none), so a payload is handled the
    instant it arrives.
    """

    is_server = True

    def __init__(self, sim, config, store, history,
                 site_id=SERVER_SITE_ID, shard_map=None):
        super().__init__(site_id)
        self.sim = sim
        self.config = config
        self.store = store
        self.history = history
        if shard_map is not None:
            self.shard_map = shard_map
            self.shard_tag = site_id
        if getattr(config, "faults", None) is not None:
            self.fault_mode = True
        self.aborts_initiated = 0

    def install_updates(self, updates):
        """Install the committed ``updates`` (item -> value)."""
        now = self.sim.now
        for item_id, value in updates.items():
            self.store.install(item_id, value=value, now=now)

    def data_ship_size(self, n_items=1, fl=None):
        size = CONTROL_SIZE + n_items * DATA_ITEM_SIZE
        if fl is not None:
            size += fl.transfer_size()
        return size

    def enable_fault_recovery(self, injector, rto, chain_timeout,
                              sweep_interval):
        """Install the fault-mode failure detector and recovery timers.
        The base server has no recovery machinery; protocol servers that
        support crashed clients override this."""

    @classmethod
    def cross_shard_state(cls):
        """Constructor keywords every home server of one sharded
        deployment must be handed the same instance of; none by default."""
        return {}

    def stats(self):
        """This server's counters, the only source of the run's
        ``server_stats``: the runner adds numbers and unites sets across
        servers. A key appears exactly when the thing
        it counts can happen in this deployment, so fingerprints only
        change when behaviour does."""
        return {"aborts_initiated": self.aborts_initiated}

    def assert_invariants(self):
        """Cheap structural self-checks, run after every simulation;
        raise ``AssertionError`` on a violation."""


class ProtocolClient(_Dispatcher):
    """Base class for a client site.

    Subclasses implement :meth:`execute`, a generator run as a simulation
    process that performs one transaction and returns a
    :class:`~repro.protocols.transaction.TxnOutcome`.
    """

    def __init__(self, sim, client_id, config, history, shard_map=None):
        super().__init__(client_id)
        self.sim = sim
        self.client_id = client_id
        self.config = config
        self.history = history
        if shard_map is not None:
            self.shard_map = shard_map
        if getattr(config, "faults", None) is not None:
            self.fault_mode = True
        #: time from each lock request to its grant (diagnostics); typed
        #: storage, 8 B a wait (a streaming run swaps in a RunningStat)
        self.op_waits = array("d")
        self.crashed = False

    @property
    def server_id(self):
        return SERVER_SITE_ID

    def home_of(self, item_id):
        """Site id of the server owning ``item_id``."""
        if self.shard_map is None:
            return SERVER_SITE_ID
        return self.shard_map.server_of(item_id)

    # -- crash lifecycle (fault injection) -----------------------------------

    def on_crash(self):
        """Fail-stop: stop retransmitting; volatile protocol state is lost.
        The transport already drops traffic overlapping the crash window,
        and the run's crash controller interrupts the live processes."""
        self.crashed = True
        if self.reliable is not None:
            self.reliable.crash()
        self.reset_protocol_state()

    def on_restart(self):
        """Come back empty: a restarted site remembers nothing about
        pre-crash transactions (their recovery is the server's job)."""
        self.crashed = False
        if self.reliable is not None:
            self.reliable.restart()
        self.reset_protocol_state()

    def reset_protocol_state(self):
        """Drop all volatile per-transaction state; subclasses override."""

    def execute(self, txn):
        raise NotImplementedError

    def send_control(self, dst, payload):
        self.send(dst, payload, size=CONTROL_SIZE)

    def data_ship_size(self, n_items=1, fl=None):
        size = CONTROL_SIZE + n_items * DATA_ITEM_SIZE
        if fl is not None:
            size += fl.transfer_size()
        return size

    def make_outcome(self, txn, start_time, end_time):
        """Assemble the outcome record the driver hands to the collector."""
        return TxnOutcome(
            txn_id=txn.txn_id,
            client_id=txn.client_id,
            committed=txn.status is COMMITTED,
            start_time=start_time,
            end_time=end_time,
            n_ops=txn.spec.n_ops,
            n_writes=txn.spec.n_writes,
            abort_reason=txn.abort_reason,
        )
