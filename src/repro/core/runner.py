"""Assemble and run simulations; replicate; compare protocols."""

import time
import warnings
from dataclasses import dataclass, field
from typing import Optional

from repro.core.parallel import SimulationCell, replication_seed, run_cells
from repro.network.faults import FaultInjector, derive_recovery_times
from repro.obs.probes import ProbeSampler, default_sources
from repro.obs.summary import TraceSummary
from repro.obs.tracer import Tracer
from repro.network.reliable import ReliableLink
from repro.network.topology import RegionTopology, UniformTopology
from repro.network.transport import Network
from repro.protocols.registry import make_protocol
from repro.protocols.sharded import make_sharded_protocol
from repro.protocols.sharding import GlobalDeadlockDetector, ShardMap
from repro.sim.engine import Simulator, relaxed_gc
from repro.sim.errors import SimulationError
from repro.sim.rng import RandomStreams
from repro.stats.ci import mean_confidence_interval
from repro.stats.collector import MetricsCollector
from repro.stats.streaming import RunningStat
from repro.storage.store import VersionedStore
from repro.storage.wal import WriteAheadLog
from repro.validate.history import HistoryRecorder
from repro.validate.serializability import check_history
from repro.validate.strictness import check_strictness
from repro.workload.arrivals import make_arrivals
from repro.workload.driver import ClientDriver, QuotaRunControl, RunControl
from repro.workload.generator import WorkloadGenerator
from repro.workload.population import (
    OpenArrivalGenerator,
    PopulationDriver,
    default_classes,
    parse_txn_mix,
    split_population,
)

#: protocols whose recovery machinery tolerates client crashes (the others
#: still work under message loss / duplication / jitter / partitions, which
#: the reliable channel masks, but have no story for a dead site)
CRASH_CAPABLE_PROTOCOLS = frozenset(
    {"s2pl", "g2pl", "g2pl-basic", "g2pl-ro"})


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


def _validate_faults(config, injector):
    crash_sites = injector.crash_sites()
    if crash_sites and config.population is not None:
        raise ValueError(
            "crash faults are not supported with open-arrival populations: "
            "the population driver multiplexes users with no per-site crash "
            "machinery; use the closed-loop model (population=None) for "
            "crash experiments")
    if crash_sites and config.protocol not in CRASH_CAPABLE_PROTOCOLS:
        raise ValueError(
            f"protocol {config.protocol!r} has no client-crash recovery; "
            f"crash faults require one of {sorted(CRASH_CAPABLE_PROTOCOLS)}")
    if (crash_sites and config.n_shards > 1
            and config.commit_protocol == "2pc-opt"):
        raise ValueError(
            "commit_protocol '2pc-opt' cannot recover from client crashes: "
            "its commit decisions carry the updates, so a surviving "
            "participant could learn the outcome but not the data; use "
            "'2pc' when combining sharding with crash faults")
    unknown = crash_sites - set(range(1, config.n_clients + 1))
    if unknown:
        raise ValueError(
            f"crash faults name unknown client sites {sorted(unknown)}")


def _build_topology(config, shard_map):
    """The run's latency model: uniform for single-region layouts, a
    region matrix (intra cheap, inter = ``network_latency``) when the
    sharded deployment spans regions."""
    if shard_map is None or config.n_regions <= 1:
        return UniformTopology(config.network_latency)
    return RegionTopology(
        shard_map.region_assignments(config.n_clients, config.n_regions),
        intra_latency=config.intra_region_latency,
        inter_latency=config.network_latency)


def _install_fault_layer(sim, config, injector, servers, clients, drivers):
    """Fault-mode wiring: reliable (ack/retransmit) channels on every site,
    the protocol's recovery timers on every home server, and the
    deterministic crash controller driving the spec's crash windows."""
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


def run_simulation(config, seed=None, check_serializability=None):
    """Run one simulation to ``config.total_transactions`` finished
    transactions and return a :class:`SimulationResult`.

    ``check_serializability`` defaults to ``config.record_history``; when
    enabled the run's recorded history is checked and a failure raises —
    a non-serializable execution is a protocol bug, never a result.
    """
    if seed is None:
        seed = config.seed
    if check_serializability is None:
        check_serializability = config.record_history
    if config.lp:
        from repro.core import lp

        lp.validate_lp_config(config)
        if lp.in_worker_process():
            # --lp inside a --jobs pool worker: spawning LP grandchildren
            # would oversubscribe the machine. The serial path below
            # produces the identical result by construction.
            warnings.warn(
                "lp=True inside a worker process: nested process pools "
                "are not supported; running this cell serially instead "
                "(the result is bit-identical)", RuntimeWarning,
                stacklevel=2)
        else:
            return lp.run_lp_simulation(
                config, seed=seed,
                check_serializability=check_serializability)

    sim = Simulator()
    tracer = None
    if config.trace or config.probe_interval is not None:
        tracer = Tracer(sim, engine_events=config.trace_engine)
        sim.tracer = tracer
    streams = RandomStreams(seed)
    history = HistoryRecorder(enabled=config.record_history)
    shard_map = None
    if config.n_shards > 1:
        shard_map = ShardMap(config.n_shards, config.n_items)
    injector = None
    if config.faults is not None:
        injector = FaultInjector(config.faults, streams.spawn("faults"))
        _validate_faults(config, injector)
    network = Network(sim, _build_topology(config, shard_map),
                      bandwidth=config.bandwidth, faults=injector)
    if tracer is not None:
        tracer.bind_network(network)
    client_ids = list(range(1, config.n_clients + 1))
    if shard_map is not None:
        stores = {}
        wals = {}
        for shard, site_id in enumerate(shard_map.server_ids):
            stores[site_id] = VersionedStore(shard_map.items_of(shard))
            wals[site_id] = WriteAheadLog()
        servers, clients = make_sharded_protocol(
            config.protocol, sim, config, shard_map, stores, wals,
            history, client_ids)
        server_list = [servers[site_id] for site_id in shard_map.server_ids]
    else:
        store = VersionedStore(range(config.n_items))
        wal = WriteAheadLog()
        server, clients = make_protocol(config.protocol, sim, config, store,
                                        wal, history, client_ids)
        server_list = [server]
    for site in server_list:
        network.add_site(site)
        if hasattr(site, "attach_adapt_rng"):
            # Dedicated stream: only adaptive servers ever draw from it,
            # so every static protocol's trajectory is untouched.
            site.attach_adapt_rng(streams.stream("adapt.controller"))
    for client in clients.values():
        network.add_site(client)

    if config.termination == "quota":
        control = QuotaRunControl(sim, config.total_transactions,
                                  config.n_clients)
    else:
        control = RunControl(sim, config.total_transactions)
    streaming = config.streaming_enabled
    collector = MetricsCollector(
        config.warmup_transactions, streaming=streaming,
        # A dedicated stream: reservoir draws cannot perturb the
        # trajectory, so streaming on/off yields identical executions.
        reservoir_rng=(streams.stream("metrics.reservoir")
                       if streaming else None),
        reservoir_capacity=config.reservoir_capacity,
        throughput_window=config.throughput_window)
    if streaming:
        # Bound the per-client lock-wait diagnostic too: a 10⁵-txn run
        # would otherwise grow op_waits without limit.
        for client in clients.values():
            client.op_waits = RunningStat()
    params = config.workload_params()
    drivers = {}
    if config.population is None:
        generator = WorkloadGenerator(params, streams)
        for client_id, client in clients.items():
            driver = ClientDriver(sim, client_id, client, generator, control,
                                  collector, mpl=config.mpl)
            drivers[client_id] = driver
            driver.start()
    else:
        classes = (parse_txn_mix(config.txn_mix, n_items=config.n_items)
                   if config.txn_mix is not None
                   else default_classes(params))
        user_counts = split_population(config.population, config.n_clients)
        for index, (client_id, client) in enumerate(clients.items()):
            n_users = user_counts[index]
            popn_rng = streams.stream(f"client{client_id}.popn")
            arrivals = make_arrivals(
                config, streams.stream(f"client{client_id}.arrival"),
                rate=n_users * config.arrival_rate)
            driver = PopulationDriver(
                sim, client_id, client,
                OpenArrivalGenerator(params, classes, popn_rng),
                control, collector, arrivals, n_users, user_rng=popn_rng,
                max_inflight=config.max_inflight_per_site)
            drivers[client_id] = driver
            driver.start()
    detector = None
    if shard_map is not None and config.protocol == "s2pl":
        # Per-shard detection cannot see cycles whose edges span shards;
        # the periodic union sweep catches distributed deadlocks. The
        # interval covers a request round trip at the worst-case latency.
        detector = GlobalDeadlockDetector(
            sim, server_list,
            interval=2.0 * config.network_latency + 1.0,
            victim_policy=config.victim_policy,
            stop_when=lambda: control.done).start()
    if injector is not None:
        _install_fault_layer(sim, config, injector, server_list, clients,
                             drivers)
    if tracer is not None and config.probe_interval is not None:
        ProbeSampler(sim, tracer, config.probe_interval,
                     default_sources(sim, network, server_list, tracer,
                                     drivers=drivers.values()),
                     stop_when=lambda: control.done).start()

    wall_start = time.perf_counter()
    try:
        with relaxed_gc():
            sim.run(until=control.done_event)
    except SimulationError as exc:
        raise RuntimeError(
            f"simulation stalled after {control.finished} of "
            f"{config.total_transactions} transactions "
            f"({config.describe()}): {exc}") from exc
    wall_seconds = time.perf_counter() - wall_start

    report = None
    if check_serializability:
        report = check_history(history)
        if not report.ok:
            raise AssertionError(
                f"non-serializable execution under {config.protocol} "
                f"(seed {seed}): {report}")
        strictness = check_strictness(history)
        if not strictness.ok:
            raise AssertionError(
                f"non-strict execution under {config.protocol} "
                f"(seed {seed}): {strictness}")
    for srv in server_list:
        if hasattr(srv, "assert_invariants"):
            srv.assert_invariants()

    if streaming:
        # op_waits are RunningStats here (no per-value storage).
        wait_sum = sum(client.op_waits.sum for client in clients.values())
        wait_count = sum(client.op_waits.count for client in clients.values())
        mean_op_wait = wait_sum / wait_count if wait_count else 0.0
    else:
        all_waits = [w for client in clients.values()
                     for w in client.op_waits]
        wait_count = len(all_waits)
        mean_op_wait = (sum(all_waits) / wait_count if wait_count else 0.0)
    server_stats = {"aborts_initiated": sum(s.aborts_initiated
                                            for s in server_list),
                    "mean_op_wait": mean_op_wait,
                    "n_ops_granted": wait_count}
    for attr in ("deadlocks_found", "windows_dispatched", "avoidance_aborts",
                 "grafted_reads", "callbacks_sent", "cache_hits"):
        if any(hasattr(s, attr) for s in server_list):
            server_stats[attr] = sum(getattr(s, attr) for s in server_list
                                     if hasattr(s, attr))
    if any(hasattr(s, "mean_fl_length") for s in server_list):
        fl_lengths = [length for s in server_list
                      for length in getattr(s, "fl_lengths", ())]
        server_stats["mean_fl_length"] = (
            sum(fl_lengths) / len(fl_lengths) if fl_lengths else 0.0)
    if any(hasattr(s, "adapt_stats") for s in server_list):
        merged = {}
        for s in server_list:
            if hasattr(s, "adapt_stats"):
                for key, value in s.adapt_stats().items():
                    merged[key] = merged.get(key, 0) + value
        server_stats.update(merged)
    if shard_map is not None:
        twopc_commits = set()
        twopc_aborts = set()
        for s in server_list:
            twopc_commits |= getattr(s, "twopc_commits", set())
            twopc_aborts |= getattr(s, "twopc_aborts", set())
        conflicted = twopc_commits & twopc_aborts
        if conflicted:
            raise AssertionError(
                f"2PC atomicity violated under {config.protocol} "
                f"(seed {seed}): txns {sorted(conflicted)[:5]} committed "
                f"at one shard and aborted at another")
        server_stats["n_shards"] = config.n_shards
        server_stats["twopc_commits"] = len(twopc_commits)
        server_stats["twopc_aborts"] = len(twopc_aborts)
        server_stats["presumed_aborts"] = sum(
            getattr(s, "presumed_aborts", 0) for s in server_list)
        server_stats["distributed_deadlocks"] = (
            detector.distributed_deadlocks if detector is not None else 0)
    if config.population is not None:
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
    if injector is not None:
        server_stats.update(injector.stats.as_dict())
        links = ([s.reliable for s in server_list]
                 + [c.reliable for c in clients.values()])
        server_stats["retransmissions"] = sum(
            link.retransmissions for link in links)
        server_stats["duplicates_suppressed"] = sum(
            link.duplicates_suppressed for link in links)
        for attr in ("crash_reclaims", "chain_repairs", "watchdog_fires",
                     "crash_aborts", "terminations_started"):
            if any(hasattr(s, attr) for s in server_list):
                server_stats[attr] = sum(getattr(s, attr)
                                         for s in server_list
                                         if hasattr(s, attr))

    engine_stats = {
        "processed_events": sim.processed_events,
        "peak_heap_depth": sim.peak_heap_depth,
        "cancelled_events": sim.cancelled_events,
        "wall_seconds": wall_seconds,
        "events_per_sec": (sim.processed_events / wall_seconds
                           if wall_seconds > 0 else 0.0),
    }
    trace = None
    if tracer is not None:
        # Flush transactions the closing run left in flight (flagged
        # unfinished) so exporters see them instead of leaking them.
        tracer.close()
        trace = tracer.finish(processed_events=sim.processed_events,
                              peak_heap_depth=sim.peak_heap_depth)

    return SimulationResult(
        config=config,
        seed=seed,
        metrics=collector.metrics,
        duration=sim.now,
        messages_sent=network.stats.messages_sent,
        data_units_sent=network.stats.data_units_sent,
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
