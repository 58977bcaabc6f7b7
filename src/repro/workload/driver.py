"""The client driver: the paper's per-client transaction loop.

Each client runs one transaction at a time (MPL 1). When a transaction
finishes — committed or aborted — the client idles for a uniformly
distributed period and then *replaces* it with a fresh transaction (§4:
aborted transactions are replaced, not retried).
"""

from repro.protocols.transaction import Transaction


class RunControl:
    """Shared run-length control: counts finished transactions and fires
    ``done_event`` when the target is reached (the paper's rule: the Nth
    finished transaction anywhere ends the run)."""

    def __init__(self, sim, target_transactions):
        if target_transactions < 1:
            raise ValueError("target_transactions must be >= 1")
        self.sim = sim
        self.target = target_transactions
        self.finished = 0
        self.done_event = sim.event()
        self._next_txn_id = 0

    def next_txn_id(self):
        self._next_txn_id += 1
        return self._next_txn_id

    def transaction_finished(self):
        self.finished += 1
        if self.finished == self.target and not self.done_event.triggered:
            self.done_event.succeed(self.finished)

    @property
    def done(self):
        return self.done_event.triggered


class ClientDriver:
    """Generates and runs transactions at one client site.

    The paper fixes the multiprogramming level at 1; ``mpl`` > 1 (an
    extension knob) runs that many independent transaction streams at the
    same client site concurrently.
    """

    def __init__(self, sim, client_id, protocol_client, generator, control,
                 collector, mpl=1):
        if mpl < 1:
            raise ValueError("mpl must be >= 1")
        self.sim = sim
        self.client_id = client_id
        self.protocol_client = protocol_client
        self.generator = generator
        self.control = control
        self.collector = collector
        self.mpl = mpl
        self._loops = []       # one Process per stream
        self._in_txn = set()   # streams currently inside execute()
        self._crashed = False
        self._restart_event = None

    def start(self):
        """Spawn the client loop(s); returns the list of processes."""
        self._loops = [self.sim.spawn(self._loop(stream))
                       for stream in range(self.mpl)]
        return self._loops

    # -- crash lifecycle (fault injection) -----------------------------------

    def crash(self):
        """Fail-stop this site: every in-flight transaction is interrupted
        (its coroutine aborts with reason ``client-crash``) and the loop(s)
        park until :meth:`restart`.

        Idempotent: a repeated ``crash()`` on an already-crashed site keeps
        the live restart event. Replacing it would orphan loops already
        parked on the old event — ``restart()`` would trigger only the new
        one and the parked loops would sleep forever."""
        self._crashed = True
        if self._restart_event is None or self._restart_event.triggered:
            self._restart_event = self.sim.event()
        for stream in sorted(self._in_txn):
            self._loops[stream].interrupt("client-crash")

    def restart(self):
        """The site comes back up and resumes submitting transactions."""
        self._crashed = False
        event, self._restart_event = self._restart_event, None
        if event is not None and not event.triggered:
            event.succeed()

    def _loop(self, stream):
        stagger_key = (self.client_id if stream == 0
                       else f"{self.client_id}.s{stream}")
        yield self.sim.timeout(self.generator.initial_stagger(stagger_key))
        tracer = self.sim.tracer
        control = self.control
        client_id = self.client_id
        while not control.done:
            if self._crashed:
                yield self._restart_event  # parks forever without a restart
                continue
            spec = self.generator.next_spec(client_id)
            txn = Transaction(control.next_txn_id(), client_id,
                              spec, birth=self.sim.now)
            if tracer is not None:
                tracer.txn_begin(txn)
            # delegated, not spawned: a crash interrupt lands in execute()
            self._in_txn.add(stream)
            try:
                outcome = yield from self.protocol_client.execute(txn)
            finally:
                self._in_txn.discard(stream)
            if control.done:
                break  # the run closed while this transaction was in flight
            self.collector.record_outcome(outcome)
            if tracer is not None:
                # Warmup transactions are traced but excluded from trace
                # aggregates, mirroring the metrics' transient elimination.
                tracer.txn_finished(outcome,
                                    measured=self.collector.measuring)
            control.transaction_finished()
            yield self.sim.timeout(self.generator.idle_time(client_id))
