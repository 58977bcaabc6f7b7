"""Assemble and run simulations; replicate; compare protocols.

Only the layers every run uses are imported here. Each optional layer —
tracing and probes, faults and the reliable channel, populations and
arrivals, shards and regions, the history checkers, the replication
helpers — is imported in the branch that builds it, so a run pays the
start-up cost of what its config turns on and nothing else.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.network.topology import RegionTopology, UniformTopology
from repro.network.transport import Network
from repro.protocols.registry import make_protocol
from repro.sim.engine import Simulator, relaxed_gc
from repro.sim.errors import SimulationError
from repro.sim.rng import RandomStreams
from repro.stats.collector import MetricsCollector
from repro.stats.streaming import RunningStat
from repro.storage.store import VersionedStore
from repro.storage.wal import WriteAheadLog
from repro.validate.history import HistoryRecorder
from repro.workload.driver import ClientDriver, ReplayDriver, RunControl
from repro.workload.generator import WorkloadGenerator


@dataclass
class SimulationResult:
    """Everything one run produced."""

    config: object
    seed: int
    metrics: object               # RunMetrics
    duration: float               # simulation time at run end
    messages_sent: int
    data_units_sent: float
    serializability: Optional[object] = None  # SerializabilityReport
    server_stats: dict = field(default_factory=dict)
    # engine profiling counters (wall-clock rates are nondeterministic and
    # therefore kept out of server_stats, which replays bit-identically)
    engine_stats: dict = field(default_factory=dict)
    trace: Optional[object] = None  # TraceData when the run was traced

    @property
    def mean_response_time(self):
        return self.metrics.mean_response_time

    @property
    def abort_percentage(self):
        return self.metrics.abort_percentage

    @property
    def throughput(self):
        return self.metrics.throughput

    def summary(self):
        return (f"{self.config.protocol}: response={self.mean_response_time:.1f} "
                f"aborts={self.abort_percentage:.2f}% "
                f"committed={self.metrics.committed} "
                f"messages={self.messages_sent}")

    def engine_summary(self):
        """One-line engine profile (``repro-experiment run --verbose``)."""
        stats = self.engine_stats
        if not stats:
            return "engine: (no counters collected)"
        rate = stats.get("events_per_sec", 0.0)
        return (f"engine: {stats.get('processed_events', 0):,} events, "
                f"peak heap depth {stats.get('peak_heap_depth', 0):,}, "
                f"{stats.get('cancelled_events', 0):,} cancelled-timer "
                f"skips, {rate:,.0f} events/sec wall-clock")


def _build_topology(config, shard_map):
    """The run's latency model: uniform for single-region layouts, a
    region matrix (intra cheap, inter = ``network_latency``) when the
    sharded deployment spans regions."""
    if config.n_regions <= 1:
        return UniformTopology(config.network_latency)
    return RegionTopology(
        shard_map.region_assignments(config.n_clients, config.n_regions),
        intra_latency=config.intra_region_latency,
        inter_latency=config.network_latency)


def _install_fault_layer(sim, config, injector, servers, clients, drivers):
    """Fault-mode wiring: reliable (ack/retransmit) channels on every site,
    the protocol's recovery timers on every home server, and the
    deterministic crash controller driving the spec's crash windows."""
    from repro.network.faults import derive_recovery_times
    from repro.network.reliable import ReliableLink

    spec = config.faults
    rto, max_interval, chain_timeout, sweep = derive_recovery_times(
        spec, config.network_latency)
    for site in [*servers, *clients.values()]:
        site.reliable = ReliableLink(sim, site, rto, backoff=spec.retry_backoff,
                                     max_interval=max_interval)
    for server in servers:
        server.enable_fault_recovery(injector, rto, chain_timeout, sweep)
    for crash in spec.crashes:
        client = clients[crash.client_id]
        driver = drivers[crash.client_id]
        sim.call_later(crash.at, _crash_site, client, driver)
        if crash.restart_at is not None:
            sim.call_later(crash.restart_at, _restart_site, client, driver)


def _crash_site(client, driver):
    # Interrupt the in-flight transactions first (delivery is scheduled, so
    # their coroutines observe the already-wiped protocol state), then wipe.
    driver.crash()
    client.on_crash()


def _restart_site(client, driver):
    client.on_restart()
    driver.restart()


@dataclass
class Assembly:
    """One wired simulation, ready to run: what :func:`assemble` built."""

    sim: object
    network: object
    servers: list                 # home servers, shard order
    clients: dict                 # client_id -> ProtocolClient
    drivers: dict                 # client_id -> driver
    control: object               # RunControl
    collector: object
    history: object
    tracer: Optional[object] = None
    injector: Optional[object] = None
    detector: Optional[object] = None  # GlobalDeadlockDetector

    def run(self, config):
        """Drive the heap until the run's control says done."""
        try:
            with relaxed_gc():
                self.sim.run(until=self.control.done_event)
        except SimulationError as exc:
            raise RuntimeError(
                f"simulation stalled after {self.control.finished} of "
                f"{config.total_transactions} transactions "
                f"({config.describe()}): {exc}") from exc

    def check(self, config, seed, check_serializability):
        """Post-run validation: the recorded history (a violation is a
        protocol bug, never a result) and the servers' own invariants."""
        report = None
        if check_serializability:
            from repro.validate.serializability import check_history
            from repro.validate.strictness import check_strictness

            report = check_history(self.history)
            if not report.ok:
                raise AssertionError(
                    f"non-serializable execution under {config.protocol} "
                    f"(seed {seed}): {report}")
            strictness = check_strictness(self.history)
            if not strictness.ok:
                raise AssertionError(
                    f"non-strict execution under {config.protocol} "
                    f"(seed {seed}): {strictness}")
        for server in self.servers:
            server.assert_invariants()
        return report


def assemble(config, seed, sim=None, network=None, local_site=None,
             schedule=None):
    """Wire one simulation: every home server and every client, on one
    heap and one network.

    A live endpoint passes its own kernel (``sim``) and transport
    (``network``) and the one site it hosts (``local_site``): only that
    site is registered and driven, the others are reached over the
    transport. A ``schedule`` (``client_id -> [(start, txn_id, spec,
    measured), ...]``) is replayed by :class:`ReplayDriver`\\ s in place of
    drawn transactions, and the run's control counts every scheduled
    transaction.
    """
    if sim is None:
        sim = Simulator()
    tracer = None
    if config.trace or config.probe_interval is not None:
        from repro.obs.tracer import Tracer

        tracer = Tracer(sim)
        sim.tracer = tracer
    streams = RandomStreams(seed)
    history = HistoryRecorder(enabled=config.record_history)
    injector = None
    if config.faults is not None:
        from repro.network.faults import FaultInjector

        injector = FaultInjector(config.faults, streams.spawn("faults"))
    client_ids = list(range(1, config.n_clients + 1))
    if config.n_shards > 1:
        from repro.protocols.sharding import ShardMap

        shard_map = ShardMap(config.n_shards, config.n_items)
        site_ids = shard_map.server_ids
        servers, clients = make_protocol(
            config.protocol, sim, config,
            {site_id: VersionedStore(shard_map.items_of(shard))
             for shard, site_id in enumerate(site_ids)},
            {site_id: WriteAheadLog() for site_id in site_ids},
            history, client_ids, shard_map=shard_map)
        servers = [servers[site_id] for site_id in site_ids]
    else:
        shard_map = None
        server, clients = make_protocol(
            config.protocol, sim, config, VersionedStore(range(config.n_items)),
            WriteAheadLog(), history, client_ids)
        servers = [server]
    if network is None:
        network = Network(sim, _build_topology(config, shard_map),
                          bandwidth=config.bandwidth, faults=injector)
    if tracer is not None:
        tracer.bind_network(network)
    hosted = [site for site in [*servers, *clients.values()]
              if local_site is None or site.site_id == local_site]
    for site in hosted:
        network.add_site(site)

    control = RunControl(sim, config.total_transactions if schedule is None
                         else sum(map(len, schedule.values())))
    streaming = config.streaming_enabled
    collector = MetricsCollector(
        config.warmup_transactions, streaming=streaming,
        # A dedicated stream: reservoir draws cannot perturb the
        # trajectory, so streaming on/off yields identical executions.
        reservoir_rng=(streams.stream("metrics.reservoir")
                       if streaming else None))
    if streaming:
        # Bound the per-client lock-wait diagnostic too: a 10⁵-txn run
        # would otherwise grow op_waits without limit.
        for client in clients.values():
            client.op_waits = RunningStat()
    params = config.workload_params()
    drivers = {}
    if schedule is not None:
        for client_id, client in clients.items():
            if client in hosted:
                driver = ReplayDriver(sim, client_id, client,
                                      schedule.get(client_id, ()), control,
                                      collector)
                drivers[client_id] = driver
                driver.start()
    elif config.population is None:
        generator = WorkloadGenerator(params, streams)
        for client_id, client in clients.items():
            driver = ClientDriver(sim, client_id, client, generator, control,
                                  collector)
            drivers[client_id] = driver
            driver.start()
    else:
        from repro.workload import population
        from repro.workload.arrivals import make_arrivals

        classes = (population.parse_txn_mix(config.txn_mix,
                                            n_items=config.n_items)
                   if config.txn_mix is not None
                   else population.default_classes(params))
        user_counts = population.split_population(config.population,
                                                  config.n_clients)
        # one cumulative table per run, not one per site
        sampler = population.ZipfItemSampler(params)
        for index, (client_id, client) in enumerate(clients.items()):
            n_users = user_counts[index]
            popn_rng = streams.stream(f"client{client_id}.popn")
            arrivals = make_arrivals(
                config, streams.stream(f"client{client_id}.arrival"),
                rate=n_users * config.arrival_rate)
            # looked up on the module at run time: tests swap the driver
            driver = population.PopulationDriver(
                sim, client_id, client,
                population.OpenArrivalGenerator(params, classes, popn_rng,
                                                sampler=sampler),
                control, collector, arrivals, n_users, user_rng=popn_rng,
                max_inflight=config.max_inflight_per_site)
            drivers[client_id] = driver
            driver.start()
    detector = None
    if len(servers) > 1:
        from repro.protocols import sharding
        from repro.protocols.s2pl import S2PLServer

        if isinstance(servers[0], S2PLServer):
            # Per-shard detection cannot see cycles whose edges span
            # shards; the periodic union sweep catches distributed
            # deadlocks. The interval covers a request round trip at the
            # worst-case latency. The class is looked up on its module
            # at run time: tests swap it.
            detector = sharding.GlobalDeadlockDetector(
                sim, servers,
                interval=2.0 * config.network_latency + 1.0,
                stop_when=lambda: control.done).start()
    if injector is not None:
        _install_fault_layer(sim, config, injector, servers, clients, drivers)
    if tracer is not None and config.probe_interval is not None:
        from repro.obs.probes import ProbeSampler, default_sources

        ProbeSampler(sim, tracer, config.probe_interval,
                     default_sources(sim, network,
                                     [s for s in servers if s in hosted],
                                     tracer, drivers=drivers.values()),
                     stop_when=lambda: control.done).start()
    return Assembly(sim=sim, network=network, servers=servers,
                    clients=clients, drivers=drivers, control=control,
                    collector=collector, history=history, tracer=tracer,
                    injector=injector, detector=detector)


def merge_server_stats(config, seed, per_server, op_waits,
                       distributed_deadlocks=0):
    """The run's ``server_stats`` from each server's declared
    :meth:`~repro.protocols.base.ProtocolServer.stats` (shard order) and
    each client's lock waits (``client_id -> op_waits``): numbers add
    and sets unite (reported as their size)."""
    if config.streaming_enabled:
        # op_waits are RunningStats here (no per-value storage).
        wait_sum = sum(waits.sum for waits in op_waits.values())
        wait_count = sum(waits.count for waits in op_waits.values())
    else:
        # one flat sum in client-id order: float addition is not
        # associative, and the fingerprint pins the exact value
        all_waits = [wait for client_id in sorted(op_waits)
                     for wait in op_waits[client_id]]
        wait_sum = sum(all_waits)
        wait_count = len(all_waits)
    merged = {}
    for stats in per_server:
        for key, value in stats.items():
            if key not in merged:
                merged[key] = set(value) if isinstance(value, set) else value
            elif isinstance(value, set):
                merged[key] |= value
            else:
                merged[key] += value
    if "fl_txns" in merged:
        # every dispatched window froze one forward list
        windows = merged["windows_dispatched"]
        merged["mean_fl_length"] = (merged.pop("fl_txns") / windows
                                    if windows else 0.0)
    if config.n_shards > 1:
        conflicted = merged["twopc_commits"] & merged["twopc_aborts"]
        if conflicted:
            raise AssertionError(
                f"2PC atomicity violated under {config.protocol} "
                f"(seed {seed}): txns {sorted(conflicted)[:5]} committed "
                f"at one shard and aborted at another")
        merged["n_shards"] = config.n_shards
        merged["distributed_deadlocks"] = distributed_deadlocks
    server_stats = {"mean_op_wait": (wait_sum / wait_count
                                     if wait_count else 0.0),
                    "n_ops_granted": wait_count}
    server_stats.update(
        (key, len(value) if isinstance(value, set) else value)
        for key, value in merged.items())
    return server_stats


def run_simulation(config, seed=None, check_serializability=None,
                   schedule=None):
    """Run one simulation to ``config.total_transactions`` finished
    transactions and return a :class:`SimulationResult`.

    ``check_serializability`` defaults to ``config.record_history``; when
    enabled the run's recorded history is checked and a failure raises —
    a non-serializable execution is a protocol bug, never a result.

    With a ``schedule`` (see :func:`assemble`) the run replays it to its
    last transaction, then drains the heap so messages still in flight
    (releases, returns) land and are charged before the trace is frozen.
    """
    if seed is None:
        seed = config.seed
    if check_serializability is None:
        check_serializability = config.record_history
    built = assemble(config, seed, schedule=schedule)
    sim = built.sim
    wall_start = time.perf_counter()
    built.run(config)
    if schedule is not None:
        sim.run()
    wall_seconds = time.perf_counter() - wall_start
    report = built.check(config, seed, check_serializability)

    clients = built.clients
    server_stats = merge_server_stats(
        config, seed, [server.stats() for server in built.servers],
        {client_id: client.op_waits for client_id, client in clients.items()},
        distributed_deadlocks=(built.detector.distributed_deadlocks
                               if built.detector is not None else 0))
    if config.population is not None:
        drivers = built.drivers
        states = [driver.state for driver in drivers.values()]
        by_class = {}
        for driver in drivers.values():
            for name, count in driver.generator.by_class.items():
                by_class[name] = by_class.get(name, 0) + count
        server_stats["population"] = config.population
        server_stats["popn_arrivals"] = sum(s.arrivals for s in states)
        server_stats["popn_started"] = sum(s.started for s in states)
        server_stats["popn_busy_skipped"] = sum(s.busy_skipped
                                                for s in states)
        server_stats["popn_shed"] = sum(s.shed for s in states)
        server_stats["popn_peak_inflight"] = max(s.peak_active
                                                 for s in states)
        server_stats["popn_by_class"] = {
            name: by_class[name] for name in sorted(by_class)}
    if built.injector is not None:
        server_stats.update(built.injector.stats.as_dict())
        links = ([s.reliable for s in built.servers]
                 + [c.reliable for c in clients.values()])
        server_stats["retransmissions"] = sum(
            link.retransmissions for link in links)
        server_stats["duplicates_suppressed"] = sum(
            link.duplicates_suppressed for link in links)

    engine_stats = {
        "processed_events": sim.processed_events,
        "peak_heap_depth": sim.peak_heap_depth,
        "cancelled_events": sim.cancelled_events,
        "wall_seconds": wall_seconds,
        "events_per_sec": (sim.processed_events / wall_seconds
                           if wall_seconds > 0 else 0.0),
    }
    trace = None
    tracer = built.tracer
    if tracer is not None:
        # Flush transactions the closing run left in flight (flagged
        # unfinished) so exporters see them instead of leaking them.
        tracer.close()
        trace = tracer.finish(processed_events=sim.processed_events,
                              peak_heap_depth=sim.peak_heap_depth)

    return SimulationResult(
        config=config,
        seed=seed,
        metrics=built.collector.metrics,
        duration=sim.now,
        messages_sent=built.network.stats.messages_sent,
        data_units_sent=built.network.stats.data_units_sent,
        serializability=report,
        server_stats=server_stats,
        engine_stats=engine_stats,
        trace=trace,
    )


@dataclass
class ReplicatedResult:
    """Aggregate over independent replications of one configuration."""

    config: object
    runs: list
    response_time: object   # ConfidenceInterval
    abort_percentage: object  # ConfidenceInterval
    # Merged TraceSummary over the traced runs (None when untraced). The
    # merge is order-stable sums/maxima, so jobs=N equals jobs=1 exactly.
    trace_summary: Optional[object] = None

    @property
    def mean_response_time(self):
        return self.response_time.mean

    @property
    def mean_abort_percentage(self):
        return self.abort_percentage.mean

    def summary(self):
        return (f"{self.config.protocol}: response={self.response_time} "
                f"aborts={self.abort_percentage}%")


def aggregate_runs(config, runs):
    """Fold per-run results into a :class:`ReplicatedResult`."""
    from repro.obs.summary import TraceSummary
    from repro.stats.ci import mean_confidence_interval

    return ReplicatedResult(
        config=config,
        runs=runs,
        response_time=mean_confidence_interval(
            [run.mean_response_time for run in runs]),
        abort_percentage=mean_confidence_interval(
            [run.abort_percentage for run in runs]),
        trace_summary=TraceSummary.merge(
            [run.trace.summary if run.trace is not None else None
             for run in runs]),
    )


def replication_cells(config, replications, base_seed=None,
                      check_serializability=None):
    """The simulation cells of one replicated run (serial seed scheme)."""
    from repro.core.parallel import SimulationCell, replication_seed

    if replications < 1:
        raise ValueError("need at least one replication")
    if base_seed is None:
        base_seed = config.seed
    return [
        SimulationCell(config, replication_seed(base_seed, index),
                       check_serializability)
        for index in range(replications)
    ]


def run_replications(config, replications=3, base_seed=None,
                     check_serializability=None, jobs=1):
    """Run independent replications (distinct seeds) and aggregate.

    ``jobs>1`` fans the replications out over a process pool; results
    are bit-identical to the serial run for the same ``base_seed``.
    """
    from repro.core.parallel import run_cells

    cells = replication_cells(config, replications, base_seed,
                              check_serializability)
    return aggregate_runs(config, run_cells(cells, jobs=jobs))


def compare_protocols(config, protocols=("s2pl", "g2pl"), replications=3,
                      base_seed=None, jobs=1):
    """Run the same workload under several protocols (common random
    numbers: identical seeds per replication index) and return
    ``{protocol: ReplicatedResult}``.

    ``jobs>1`` fans out across the full protocols x replications
    cross-product, not one protocol at a time.
    """
    from repro.core.parallel import run_cells

    configs = {protocol: config.replace(protocol=protocol)
               for protocol in protocols}
    cells = []
    for protocol in protocols:
        cells.extend(replication_cells(configs[protocol], replications,
                                       base_seed))
    runs = run_cells(cells, jobs=jobs)
    results = {}
    for position, protocol in enumerate(protocols):
        chunk = runs[position * replications:(position + 1) * replications]
        results[protocol] = aggregate_runs(configs[protocol], chunk)
    return results


def improvement_percentage(baseline, contender):
    """Paper-style response-time improvement of ``contender`` over
    ``baseline``: positive means the contender is faster."""
    base = baseline.mean_response_time
    new = contender.mean_response_time
    if base == 0:
        return 0.0
    return 100.0 * (base - new) / base
