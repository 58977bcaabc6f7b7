"""Portable live/sim scenarios: one driver, two kernels.

A scenario is a set of per-client generator loops written against the
:class:`~repro.sim.engine.Simulator`, so the exact same loop runs under
the simulator (one process, virtual time) and under its wall-clock
subclass :class:`~repro.live.clock.LiveKernel` (one process per site,
over TCP), on a protocol stack both worlds assemble with one function
(:func:`build_stack`). That is what makes the sim-vs-live calibration
meaningful: any divergence is the transport and the clock, never the
workload.

Two modes:

``calibrate``
    The paper's contended-item shape (:mod:`repro.obs.rounds`), repeated
    for ``repeats`` epochs: one *primer* client takes the single data
    item first; the remaining ``m = n_clients - 1`` contenders request it
    while the primer holds, at staggered offsets. The stagger fixes the
    server-side arrival *order* — the quantity wall-clock jitter could
    otherwise scramble — so per-transaction round charges are
    deterministic: live must match sim **exactly** (s-2PL: 3 rounds per
    commit; g-2PL: 2m+1 per epoch across the contenders). Every margin in
    the schedule is a multiple of the network latency, orders of
    magnitude above loopback jitter at the default time scale.

``workload``
    The Table 1 workload. Each client draws from its own named random
    stream (:class:`~repro.sim.rng.RandomStreams` derives streams by
    name, not draw order), so a live client process and its sim
    counterpart generate byte-identical transaction sequences. Clients
    stop *starting* transactions at the ``duration`` horizon; round
    counts are compared on the transactions committed in both worlds.

Transaction ids are ``client_id * 1_000_000 + sequence`` — derivable
per-process, no shared counter across endpoints.
"""

from dataclasses import dataclass, field, replace

from repro.core.config import SimulationConfig
from repro.locking.modes import LockMode
from repro.protocols.transaction import Transaction
from repro.workload.spec import Operation, TransactionSpec

#: txn-id stride per client; sequence numbers stay far below this
TXN_ID_STRIDE = 1_000_000

MODES = ("calibrate", "workload")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that defines one live (or reference-sim) run."""

    protocol: str = "s2pl"
    mode: str = "calibrate"
    #: client *sites* (calibrate: m = n_clients - 1 contenders + 1 primer)
    n_clients: int = 4
    latency: float = 2.0
    seed: int = 1
    # calibrate mode
    think: float = 1.0
    repeats: int = 3          # epochs; each epoch commits m contenders
    spacing: float = 0.5      # contender request stagger within an epoch
    epoch_gap: float = 10.0   # quiesce padding between epochs
    # workload mode
    duration: float = 200.0   # stop starting transactions at this time
    n_items: int = 25
    read_probability: float = 0.6
    # observability (live runs): export every endpoint's structured
    # events/probes in its payload so the harness can merge one
    # cross-process Chrome trace; sample gauges every probe_interval
    # sim units when set. Neither changes protocol traffic.
    trace_export: bool = False
    probe_interval: float = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose {MODES}")
        if self.n_clients < 2 and self.mode == "calibrate":
            raise ValueError("calibrate needs >= 2 clients (primer + m)")
        if self.n_clients < 1:
            raise ValueError("need at least one client")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.latency <= 0:
            raise ValueError("latency must be positive")
        if self.spacing < 0:
            raise ValueError(f"spacing must be >= 0, got {self.spacing!r}")
        if self.mode == "calibrate":
            # every contender must request while the primer holds the
            # item (see _calibrate_loop), or the window splits in two
            last = 1.0 + (self.n_clients - 2) * self.spacing
            hold = 2 * self.latency + self.think
            if last >= hold:
                raise ValueError(
                    f"calibrate: the last contender requests at t={last:g},"
                    f" not before 2*latency + think = {hold:g}, so its "
                    f"request reaches the server after the primer's "
                    f"release and the window splits; lower the clients or "
                    f"the spacing, or raise the latency or the think time")

    @property
    def client_ids(self):
        return list(range(1, self.n_clients + 1))

    @property
    def primer_id(self):
        """Calibrate mode: the highest client id primes each epoch."""
        return self.n_clients

    @property
    def contender_ids(self):
        return list(range(1, self.n_clients))

    def epoch_length(self):
        """Worst-case busy period of one calibrate epoch, padded.

        s-2PL serialises the contenders: primer round trip + think, then
        each contender pays a grant trip, a think, and a release trip.
        g-2PL is strictly faster (merged release/grant). ``epoch_gap``
        absorbs the return-to-server tail and all wall-clock jitter.
        """
        m = self.n_clients - 1
        primer = 2 * self.latency + self.think
        chain = m * (self.think + 2 * self.latency)
        stagger = m * self.spacing
        return primer + chain + stagger + self.epoch_gap

    def sim_config(self):
        """The :class:`SimulationConfig` both worlds assemble from."""
        if self.mode == "calibrate":
            return SimulationConfig(
                protocol=self.protocol, n_clients=self.n_clients, n_items=1,
                network_latency=self.latency, read_probability=0.0,
                think_min=self.think, think_max=self.think,
                total_transactions=10_000, warmup_transactions=0,
                seed=self.seed, record_history=True, trace=True)
        return SimulationConfig(
            protocol=self.protocol, n_clients=self.n_clients,
            n_items=self.n_items, network_latency=self.latency,
            read_probability=self.read_probability,
            total_transactions=10_000, warmup_transactions=0,
            seed=self.seed, record_history=True, trace=True)

    def horizon(self):
        """Upper bound on interesting simulation time (live shutdown aid)."""
        if self.mode == "calibrate":
            return self.repeats * self.epoch_length()
        return self.duration

    def to_dict(self):
        return {
            "protocol": self.protocol, "mode": self.mode,
            "n_clients": self.n_clients, "latency": self.latency,
            "seed": self.seed, "think": self.think,
            "repeats": self.repeats, "spacing": self.spacing,
            "epoch_gap": self.epoch_gap, "duration": self.duration,
            "n_items": self.n_items,
            "read_probability": self.read_probability,
            "trace_export": self.trace_export,
            "probe_interval": self.probe_interval,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def with_(self, **changes):
        return replace(self, **changes)


@dataclass
class OutcomeSink:
    """Collects driver-visible outcomes on one endpoint (or the sim)."""

    outcomes: list = field(default_factory=list)

    def record(self, outcome, measured):
        self.outcomes.append((outcome, measured))


def txn_id_for(client_id, sequence):
    if sequence >= TXN_ID_STRIDE:
        raise ValueError(f"sequence {sequence} overflows the txn-id stride")
    return client_id * TXN_ID_STRIDE + sequence


def _run_txn(kernel, client, txn, sink, measured):
    """Begin, execute, and finalise one transaction (shared sub-loop)."""
    tracer = kernel.tracer
    if tracer is not None:
        tracer.txn_begin(txn)
    outcome = yield kernel.spawn(client.execute(txn))
    sink.record(outcome, measured)
    if tracer is not None:
        tracer.txn_finished(outcome, measured=measured)
    return outcome


def _calibrate_loop(spec, kernel, client, client_id, sink):
    """One client's schedule across all calibrate epochs.

    Absolute-time schedule (within epoch ``e``, base ``B = e * epoch``):
    the primer requests at ``B``; contender ``i`` (1-based) requests at
    ``B + 1 + (i - 1) * spacing``. With latency ``L`` and think ``T``,
    the primer's lock exists at the server from ``B + L`` and its release
    lands at ``B + 3L + T``; contender arrivals span
    ``(B + 1 + L, B + 1 + L + (m-1)s)`` — inside the hold window as long
    as ``1 + (m-1)s < 2L + T``, which :class:`ScenarioSpec` enforces,
    with ``spacing`` separating consecutive arrivals. Both margins are
    wall-clock-jitter budgets.
    """
    is_primer = client_id == spec.primer_id
    epoch = spec.epoch_length()
    offset = 0.0 if is_primer else 1.0 + (client_id - 1) * spec.spacing
    txn_spec = TransactionSpec(operations=(
        Operation(item_id=0, mode=LockMode.WRITE, think_time=spec.think),))
    for index in range(spec.repeats):
        start = index * epoch + offset
        delay = start - kernel.now
        if delay > 0:
            yield kernel.timeout(delay)
        txn = Transaction(txn_id_for(client_id, index + 1), client_id,
                          txn_spec, birth=kernel.now)
        yield from _run_txn(kernel, client, txn, sink,
                            measured=not is_primer)


def _workload_loop(spec, kernel, client, client_id, sink, generator):
    """The paper's client loop (stagger, run, idle) up to the horizon."""
    yield kernel.timeout(generator.initial_stagger(client_id))
    sequence = 0
    while kernel.now < spec.duration:
        sequence += 1
        txn = Transaction(txn_id_for(client_id, sequence), client_id,
                          generator.next_spec(client_id), birth=kernel.now)
        yield from _run_txn(kernel, client, txn, sink, measured=True)
        yield kernel.timeout(generator.idle_time(client_id))


def make_generator(spec):
    """The Table 1 generator for ``spec`` (workload mode); per-client
    streams are name-derived, so any process can build its own."""
    from repro.sim.rng import RandomStreams
    from repro.workload.generator import WorkloadGenerator

    return WorkloadGenerator(spec.sim_config().workload_params(),
                             RandomStreams(spec.seed))


def client_loop(spec, kernel, client, client_id, sink, generator=None):
    """The generator driving ``client_id``, for either kernel."""
    if spec.mode == "calibrate":
        return _calibrate_loop(spec, kernel, client, client_id, sink)
    if generator is None:
        generator = make_generator(spec)
    return _workload_loop(spec, kernel, client, client_id, sink, generator)


# -- the reference run: same scenario, simulator kernel ----------------------


@dataclass
class SimReference:
    """What the simulator says the live run should look like."""

    spec: object
    history: object           # HistoryRecorder
    trace: object             # TraceData (complete per-txn records)
    outcomes: list            # [(TxnOutcome, measured), ...]
    messages_sent: int
    duration: float

    @property
    def records_by_txn(self):
        return {record["txn"]: record for record in self.trace.txns}


def build_stack(spec, kernel, network):
    """What both worlds assemble ``spec`` from on ``kernel`` and
    ``network``: a tracer, a history, a store, a WAL, and
    ``make_protocol``'s server and clients. No site is registered — the
    reference run adds every one to its network, an endpoint only its
    own — so this returns ``(tracer, history, server, clients)``."""
    from repro.obs.tracer import Tracer
    from repro.protocols.registry import make_protocol
    from repro.storage.store import VersionedStore
    from repro.storage.wal import WriteAheadLog
    from repro.validate.history import HistoryRecorder

    config = spec.sim_config()
    tracer = Tracer(kernel)
    kernel.tracer = tracer
    tracer.bind_network(network)
    history = HistoryRecorder()
    server, clients = make_protocol(
        spec.protocol, kernel, config, VersionedStore(range(config.n_items)),
        WriteAheadLog(), history, spec.client_ids)
    return tracer, history, server, clients


def run_reference(spec):
    """Run ``spec`` under the simulator; the calibration baseline."""
    from repro.network.topology import UniformTopology
    from repro.network.transport import Network
    from repro.sim.engine import Simulator

    sim = Simulator()
    network = Network(sim, UniformTopology(spec.latency))
    tracer, history, server, clients = build_stack(spec, sim, network)
    network.add_site(server)
    for client in clients.values():
        network.add_site(client)
    sink = OutcomeSink()
    generator = make_generator(spec) if spec.mode == "workload" else None
    processes = [
        sim.spawn(client_loop(spec, sim, clients[client_id], client_id,
                              sink, generator))
        for client_id in spec.client_ids
    ]
    sim.run(until=sim.all_of(processes))
    # Drain the tail (returns/releases still in flight) so late round
    # charges land before the trace is frozen — live runs get the same
    # courtesy from the harness's shutdown grace period.
    sim.run()
    return SimReference(
        spec=spec, history=history,
        trace=tracer.finish(processed_events=sim.processed_events,
                            peak_heap_depth=sim.peak_heap_depth),
        outcomes=sink.outcomes,
        messages_sent=network.stats.messages_sent,
        duration=sim.now)
