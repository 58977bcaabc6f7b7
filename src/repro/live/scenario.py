"""Live runs as data: a :class:`SimulationConfig`, a mode, a schedule.

A live run is described by one :class:`ScenarioSpec`: the
:class:`~repro.core.config.SimulationConfig` it runs, plus the knobs
only live mode has. Both worlds wire it with
:func:`repro.core.runner.assemble` and drive it from one *schedule*:
per client, each transaction's start time, txn id, operations and
``measured`` flag, replayed by :class:`~repro.workload.driver
.ReplayDriver` on the simulator and on every live client endpoint alike.
That is what makes the sim-vs-live calibration meaningful: any
divergence is the transport and the clock, never the workload.

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
    The Table 1 workload, as ``run_simulation(config)`` runs it: live
    clients replay every transaction that run began, finished or not, at
    its start time and with its id, so records pair by txn id and a late
    transaction never delays the next one's start.
"""

import dataclasses
from dataclasses import dataclass

from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.locking.modes import LockMode
from repro.sim.rng import RandomStreams
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import Operation, TransactionSpec

MODES = ("calibrate", "workload")

#: config fields live mode cannot honour over sockets: the transport
#: shapes a uniform latency and nothing else, one process hosts one
#: site, and a client replays one transaction at a time
UNSUPPORTED = ("bandwidth", "faults", "n_regions", "n_shards", "population")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that defines one live (or reference-sim) run.

    ``config`` is the run; the spec keeps it traced and with its history
    recorded, which both sides of the comparison read. Calibrate mode
    writes item 0 with ``config.think_min`` of think time per
    transaction, on ``config.n_clients`` sites (m contenders + 1 primer).
    """

    config: SimulationConfig
    mode: str = "calibrate"
    # calibrate mode
    repeats: int = 3          # epochs; each epoch commits m contenders
    spacing: float = 0.5      # contender request stagger within an epoch
    epoch_gap: float = 10.0   # quiesce padding between epochs
    # export every endpoint's structured events/probes in its payload so
    # the harness can merge one cross-process Chrome trace; it does not
    # change protocol traffic
    trace_export: bool = False

    def __post_init__(self):
        config = self.config
        if not (config.trace and config.record_history):
            object.__setattr__(self, "config", config.replace(
                trace=True, record_history=True))
        defaults = SimulationConfig()
        unsupported = [name for name in UNSUPPORTED
                       if getattr(config, name) != getattr(defaults, name)]
        if unsupported:
            raise ValueError(
                f"live mode cannot honour {', '.join(unsupported)} over "
                f"sockets (one uniform-latency TCP mesh, one site per "
                f"process, one transaction at a time per client)")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose {MODES}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if config.network_latency <= 0:
            raise ValueError("latency must be positive")
        if self.spacing < 0:
            raise ValueError(f"spacing must be >= 0, got {self.spacing!r}")
        if self.mode == "calibrate":
            if config.n_clients < 2:
                raise ValueError("calibrate needs >= 2 clients (primer + m)")
            # every contender must request while the primer holds the
            # item (see calibrate_schedule), or the window splits in two
            last = 1.0 + (config.n_clients - 2) * self.spacing
            hold = 2 * config.network_latency + config.think_min
            if last >= hold:
                raise ValueError(
                    f"calibrate: the last contender requests at t={last:g},"
                    f" not before 2*latency + think = {hold:g}, so its "
                    f"request reaches the server after the primer's "
                    f"release and the window splits; lower the clients or "
                    f"the spacing, or raise the latency or the think time")

    @property
    def client_ids(self):
        return list(range(1, self.config.n_clients + 1))

    def epoch_length(self):
        """Worst-case busy period of one calibrate epoch, padded.

        s-2PL serialises the contenders: primer round trip + think, then
        each contender pays a grant trip, a think, and a release trip.
        g-2PL is strictly faster (merged release/grant). ``epoch_gap``
        absorbs the return-to-server tail and all wall-clock jitter.
        """
        config = self.config
        m = config.n_clients - 1
        latency, think = config.network_latency, config.think_min
        primer = 2 * latency + think
        chain = m * (think + 2 * latency)
        stagger = m * self.spacing
        return primer + chain + stagger + self.epoch_gap

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**{**data, "config": SimulationConfig(**data["config"])})


# -- schedules: client_id -> [(start, txn_id, spec, measured), ...] ----------


def calibrate_schedule(spec):
    """Calibrate mode's schedule, epoch by epoch.

    Within epoch ``e`` (base ``B = e * epoch_length``) the primer (the
    highest client id) starts at ``B``; contender ``i`` (1-based) at
    ``B + 1 + (i - 1) * spacing``. With latency ``L`` and think ``T``, the
    primer's lock exists at the server from ``B + L`` and its release
    lands at ``B + 3L + T``; contender arrivals span
    ``(B + 1 + L, B + 1 + L + (m-1)s)`` — inside the hold window as long
    as ``1 + (m-1)s < 2L + T``, which :class:`ScenarioSpec` enforces,
    with ``spacing`` separating consecutive arrivals. Both margins are
    wall-clock-jitter budgets. Txn ids count up in start order.
    """
    primer = spec.config.n_clients
    epoch = spec.epoch_length()
    txn = TransactionSpec(operations=(Operation(
        item_id=0, mode=LockMode.WRITE, think_time=spec.config.think_min),))
    schedule = {client_id: [] for client_id in spec.client_ids}
    txn_id = 0
    for index in range(spec.repeats):
        for client_id in [primer, *range(1, primer)]:
            offset = (0.0 if client_id == primer
                      else 1.0 + (client_id - 1) * spec.spacing)
            txn_id += 1
            schedule[client_id].append((index * epoch + offset, txn_id, txn,
                                        client_id != primer))
    return schedule


def replay_schedule(config, trace):
    """The schedule of every transaction a traced run of ``config`` began.

    Start time, id and ``measured`` flag come from the trace's records
    (an unfinished one is unmeasured); the operations are redrawn. A
    client's specs come from its own named stream, one per transaction
    in the order it began them, which is txn-id order within the client.
    """
    generator = WorkloadGenerator(config.workload_params(),
                                  RandomStreams(config.seed))
    schedule = {client_id: [] for client_id in range(1, config.n_clients + 1)}
    for record in sorted(trace.txns, key=lambda record: record["txn"]):
        client_id = record["client"]
        schedule[client_id].append((record["start"], record["txn"],
                                    generator.next_spec(client_id),
                                    record["measured"]))
    return schedule


def horizon(schedule):
    """The latest start time in ``schedule`` (live deadlines add to it)."""
    return max(entry[0] for entries in schedule.values() for entry in entries)


def schedule_to_json(schedule):
    return {str(client_id): [
        [start, txn_id, [[op.item_id, op.mode.name, op.think_time]
                         for op in spec.operations], measured]
        for start, txn_id, spec, measured in entries]
        for client_id, entries in schedule.items()}


def schedule_from_json(data):
    return {int(client_id): [
        (start, txn_id, TransactionSpec(operations=tuple(
            Operation(item, LockMode[mode], think)
            for item, mode, think in operations)), measured)
        for start, txn_id, operations, measured in entries]
        for client_id, entries in data.items()}


def run_reference(spec):
    """The schedule live replays and the simulator's replay of it.

    Workload mode's schedule is read off ``run_simulation(spec.config)``.
    That run stops at its last counted transaction, cutting off charges
    still to land (g-2PL releases after a commit), so live is compared
    with the replay, which runs every scheduled transaction to the end
    as live does, and agrees with the run on everything the run
    finished. Returns ``(SimulationResult, schedule)``.
    """
    if spec.mode == "calibrate":
        schedule = calibrate_schedule(spec)
    else:
        schedule = replay_schedule(spec.config,
                                   run_simulation(spec.config).trace)
    return run_simulation(spec.config, schedule=schedule), schedule
