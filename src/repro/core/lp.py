"""LP-partitioned parallel execution: one process per shard.

A sharded run with a shard-local workload (``cross_shard_probability=0``)
decomposes into ``n_shards`` independent *logical processes* (LPs): shard
``k``'s home server plus the clients whose home shard is ``k`` (client
``c`` -> shard ``(c - 1) % n_shards``, the same formula the workload
generator and the geo-placement use). Each LP runs on its own
:class:`~repro.sim.engine.Simulator` heap in its own OS process; the
parent merges the per-LP results into a :class:`SimulationResult` that is
**bit-identical** to the serial run of the same config — the golden
fingerprints in ``tests/golden`` (and ``tests/test_lp.py``) enforce this.

Why the decomposition is exact
------------------------------

* **Transaction ids and quotas** are pure functions of
  ``(client_id, position)`` under ``termination="quota"``
  (:class:`~repro.workload.driver.QuotaRunControl`), so an LP worker
  mints exactly the ids the serial run would, with no shared counter.
* **Random streams** are name-derived
  (:class:`~repro.sim.rng.RandomStreams`): ``client7.txn`` yields the
  same draws whether or not client 3's streams were ever created.
* **The workload is shard-closed** at ``cross_shard_probability=0``:
  every message of a transaction flows between its client and its home
  server, both inside one LP. The serial trajectory restricted to one
  shard's sites is therefore a complete, self-contained event history —
  the same floats in the same order the LP worker computes. (Heap ties
  between *different* LPs' events never carry information across the
  partition boundary, because no handler reads another shard's state.)
* **The s-2PL global deadlock detector is omitted** in LP workers: with
  single-shard transactions the union wait-for graph is the disjoint
  union of the per-shard graphs, each kept acyclic by local detection at
  request time, so the periodic sweep can never find a victim. Its timer
  events perturb only unfingerprinted engine counters.
* **A g-2PL shard gets a private precedence DAG**
  (:func:`~repro.protocols.sharded.make_lp_shard`): the shared DAG of
  the serial run is the disjoint union of per-shard components.

Synchronization
---------------

The general machinery is conservative window synchronization in the
YAWNS/CMB style: the parent grants every LP the window
``[now, min_i(next_event_i) + lookahead)``, where the lookahead is the
minimum latency of any cross-LP link — no LP can receive a remote event
earlier than a granted horizon, so draining the window is safe. With a
shard-closed workload no cross-LP message can ever exist, the lookahead
is infinite, and the protocol degenerates to its fast path: a single
unbounded window per LP (``sim.run(until=done)``). A finite lookahead
(exercised by ``tests/test_lp.py``) drives the real
:meth:`~repro.sim.engine.Simulator.run_window` round trips.

Nested pools: when this process is itself a worker (``--lp`` inside
``--jobs N``), spawning grandchildren would oversubscribe the machine,
so the caller (:func:`repro.core.runner.run_simulation`) falls back to
the ordinary serial path with a warning — sound because the LP result is
identical to the serial one by construction.
"""

import math
import multiprocessing
import time
from multiprocessing import get_context

from repro.stats.collector import MetricsCollector

#: Worker processes get this long to deliver their result before the
#: parent declares the run wedged (wall-clock; generous on purpose).
_JOIN_TIMEOUT = 60.0


def in_worker_process():
    """True when this process is itself a multiprocessing child (a
    ``--jobs`` pool worker must not spawn LP grandchildren)."""
    return multiprocessing.parent_process() is not None


def lp_client_ids(n_clients, n_shards, shard):
    """The clients co-located with ``shard`` (home-shard formula)."""
    return [c for c in range(1, n_clients + 1)
            if (c - 1) % n_shards == shard]


def validate_lp_config(config):
    """Raise ``ValueError`` unless ``config`` is LP-decomposable."""
    from repro.protocols.sharded import SHARDED_PROTOCOLS

    if config.protocol not in SHARDED_PROTOCOLS:
        raise ValueError(
            f"lp=True needs a sharded protocol "
            f"({sorted(SHARDED_PROTOCOLS)}), got {config.protocol!r}")
    if config.termination != "quota":
        raise ValueError(
            "lp=True requires termination='quota': global termination "
            "('the Nth finished transaction anywhere') couples every "
            "client and cannot be decomposed per shard")
    if config.cross_shard_probability != 0.0:
        raise ValueError(
            "lp=True requires a shard-local workload "
            "(cross_shard_probability=0.0): cross-shard transactions "
            "couple the logical processes")
    if config.faults is not None:
        raise ValueError("lp=True does not support fault injection")
    if config.trace or config.probe_interval is not None:
        raise ValueError(
            "lp=True does not support tracing or probes (the tracer is "
            "a single-process observer); run serially to trace")
    if config.population is not None:
        raise ValueError(
            "lp=True supports the closed-loop client model only "
            "(population=None)")
    if config.mpl != 1:
        raise ValueError("lp=True requires mpl=1")
    if config.streaming_enabled:
        raise ValueError(
            "lp=True requires exact metrics (streaming off): the "
            "reservoir stream is a single-process consumer")
    if config.n_clients < config.n_shards:
        raise ValueError(
            f"lp=True needs at least one client per shard "
            f"({config.n_clients} clients < {config.n_shards} shards)")


def derive_lookahead(config):
    """The conservative lookahead: the minimum latency of any cross-LP
    link, or ``inf`` when no cross-LP message can exist (shard-local
    workload) and every LP may free-run to completion."""
    if (config.cross_shard_probability or 0.0) == 0.0:
        return math.inf
    from repro.core.runner import _build_topology
    from repro.protocols.sharding import ShardMap

    shard_map = ShardMap(config.n_shards, config.n_items)
    topology = _build_topology(config, shard_map)
    groups = []
    for shard in range(config.n_shards):
        groups.append([shard_map.server_ids[shard]]
                      + lp_client_ids(config.n_clients, config.n_shards,
                                      shard))
    lookahead = math.inf
    for i, group in enumerate(groups):
        for other in groups[i + 1:]:
            for a in group:
                for b in other:
                    lookahead = min(lookahead, topology.latency(a, b),
                                    topology.latency(b, a))
    return lookahead


class _OutcomeLog:
    """Collector stand-in inside an LP worker: outcomes are shipped to
    the parent, which replays them through one real
    :class:`MetricsCollector` in global end-time order."""

    #: no tracer in LP workers, so nothing ever reads this mid-run
    measuring = False

    def __init__(self):
        self.outcomes = []

    def record_outcome(self, outcome):
        self.outcomes.append(outcome)


def _build_lp(config, seed, shard):
    """Construct one logical process: shard ``shard``'s server, its
    co-located clients, drivers, and quota control on a private heap."""
    from repro.core.runner import _build_topology
    from repro.network.transport import Network
    from repro.protocols.sharded import make_lp_shard
    from repro.protocols.sharding import ShardMap
    from repro.sim.engine import Simulator
    from repro.sim.rng import RandomStreams
    from repro.storage.store import VersionedStore
    from repro.storage.wal import WriteAheadLog
    from repro.validate.history import HistoryRecorder
    from repro.workload.driver import ClientDriver, QuotaRunControl
    from repro.workload.generator import WorkloadGenerator

    sim = Simulator()
    streams = RandomStreams(seed)
    history = HistoryRecorder(enabled=config.record_history)
    shard_map = ShardMap(config.n_shards, config.n_items)
    # The full region topology: latencies are a function of (src, dst)
    # region placement, identical to the serial run's model even though
    # only this LP's sites are registered.
    network = Network(sim, _build_topology(config, shard_map),
                      bandwidth=config.bandwidth, faults=None)
    client_ids = lp_client_ids(config.n_clients, config.n_shards, shard)
    store = VersionedStore(shard_map.items_of(shard))
    wal = WriteAheadLog()
    server, clients = make_lp_shard(config.protocol, sim, config, shard_map,
                                    shard, store, wal, history, client_ids)
    network.add_site(server)
    for client in clients.values():
        network.add_site(client)
    # Global total and n_clients, shard-local client ids: the quota and
    # id arithmetic is identical to the serial control's.
    control = QuotaRunControl(sim, config.total_transactions,
                              config.n_clients, client_ids=client_ids)
    sink = _OutcomeLog()
    generator = WorkloadGenerator(config.workload_params(), streams)
    for client_id, client in clients.items():
        ClientDriver(sim, client_id, client, generator, control, sink,
                     mpl=config.mpl).start()
    return sim, network, server, clients, control, sink, history


def _shard_payload(config, shard, sim, network, server, clients, control,
                   sink, history, done_at, check_serializability):
    """Post-run checks plus everything the parent needs for the merge."""
    from repro.validate.serializability import check_history
    from repro.validate.strictness import check_strictness

    if check_serializability:
        # Shard-local histories are complete histories (item sets are
        # disjoint across shards), so serializability decomposes.
        report = check_history(history)
        if not report.ok:
            raise AssertionError(
                f"non-serializable execution under {config.protocol} "
                f"(shard {shard}): {report}")
        strictness = check_strictness(history)
        if not strictness.ok:
            raise AssertionError(
                f"non-strict execution under {config.protocol} "
                f"(shard {shard}): {strictness}")
    if hasattr(server, "assert_invariants"):
        server.assert_invariants()
    server_attrs = {}
    for attr in ("deadlocks_found", "windows_dispatched",
                 "avoidance_aborts", "grafted_reads", "callbacks_sent",
                 "cache_hits"):
        if hasattr(server, attr):
            server_attrs[attr] = getattr(server, attr)
    return {
        "shard": shard,
        "outcomes": sink.outcomes,
        "op_waits": {client_id: list(client.op_waits)
                     for client_id, client in clients.items()},
        "now": done_at,
        "messages_sent": network.stats.messages_sent,
        "data_units_sent": network.stats.data_units_sent,
        "aborts_initiated": server.aborts_initiated,
        "server_attrs": server_attrs,
        "has_fl": hasattr(server, "mean_fl_length"),
        "fl_lengths": list(getattr(server, "fl_lengths", ())),
        "twopc_commits": set(getattr(server, "twopc_commits", ())),
        "twopc_aborts": set(getattr(server, "twopc_aborts", ())),
        "presumed_aborts": getattr(server, "presumed_aborts", 0),
        "processed_events": sim.processed_events,
        "peak_heap_depth": sim.peak_heap_depth,
        "cancelled_events": sim.cancelled_events,
    }


def _lp_worker(conn, config, seed, shard, lookahead, check_serializability):
    """Worker entry point (top-level so the spawn pickler finds it)."""
    from repro.sim.engine import relaxed_gc
    from repro.sim.errors import SimulationError

    try:
        built = _build_lp(config, seed, shard)
        sim, network, server, clients, control, sink, history = built
        cpu_start = time.process_time()
        try:
            if math.isinf(lookahead):
                # Shard-closed workload: one unbounded window, stopping
                # exactly at this LP's quota-done event.
                with relaxed_gc():
                    sim.run(until=control.done_event)
                done_at = sim.now
            else:
                done_at = _run_windows(conn, sim, control)
        except SimulationError as exc:
            raise RuntimeError(
                f"LP shard {shard} stalled after {control.finished} "
                f"transactions: {exc}") from exc
        except KeyError as exc:
            if "unknown destination site" in str(exc):
                raise RuntimeError(
                    f"cross-LP message in shard {shard} ({exc}): the "
                    f"workload broke the cross_shard_probability=0 "
                    f"contract") from exc
            raise
        cpu_seconds = time.process_time() - cpu_start
        payload = _shard_payload(config, shard, sim, network, server,
                                 clients, control, sink, history, done_at,
                                 check_serializability)
        payload["cpu_seconds"] = cpu_seconds
        conn.send(("result", payload))
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


def _run_windows(conn, sim, control):
    """Finite-lookahead path: drain parent-granted windows until done.

    The quota-done event is a heap entry at the time the last managed
    client finished; its callback captures that timestamp so ``duration``
    matches the serial run even when the granted window runs a few idle
    wakeups past it.
    """
    from repro.sim.engine import relaxed_gc

    done_box = []
    control.done_event.add_callback(lambda _event: done_box.append(sim.now))
    conn.send(("ready", sim.peek(), control.done))
    with relaxed_gc():
        while True:
            command = conn.recv()
            if command[0] == "finish":
                break
            next_when = sim.run_window(command[1])
            done = control.done
            conn.send(("at", math.inf if done else next_when, done))
    if not done_box:
        raise RuntimeError("LP windows exhausted before quota completion")
    return done_box[0]


def _recv(conn, proc, shard):
    """One message from a worker, with error translation."""
    try:
        message = conn.recv()
    except EOFError:
        raise RuntimeError(
            f"LP worker for shard {shard} died without a result "
            f"(exitcode {proc.exitcode})") from None
    if message[0] == "error":
        raise RuntimeError(f"LP worker for shard {shard} failed: "
                           f"{message[1]}")
    return message


def _drive_windows(workers, lookahead):
    """Parent side of the conservative window protocol."""
    states = []
    for shard, (proc, conn) in enumerate(workers):
        _tag, next_when, done = _recv(conn, proc, shard)
        states.append((next_when, done))
    while not all(done for _next_when, done in states):
        floor = min(next_when for next_when, done in states if not done)
        if math.isinf(floor):
            raise RuntimeError(
                "LP window scheduler wedged: an unfinished shard has an "
                "empty event heap")
        horizon = floor + lookahead
        active = [shard for shard, (_next_when, done) in enumerate(states)
                  if not done]
        for shard in active:
            workers[shard][1].send(("window", horizon))
        for shard in active:
            proc, conn = workers[shard]
            _tag, next_when, done = _recv(conn, proc, shard)
            states[shard] = (next_when, done)
    payloads = []
    for shard, (proc, conn) in enumerate(workers):
        conn.send(("finish",))
        _tag, payload = _recv(conn, proc, shard)
        payloads.append(payload)
    return payloads


def _merge_results(config, seed, payloads, wall_seconds):
    """Assemble the parent-side :class:`SimulationResult`, replicating
    the serial runner's aggregation (including float summation order:
    op_waits concatenate in client-id order, fl_lengths in shard order)."""
    from repro.core.runner import SimulationResult

    payloads = sorted(payloads, key=lambda payload: payload["shard"])
    outcomes = [outcome for payload in payloads
                for outcome in payload["outcomes"]]
    # The serial collector records outcomes as completion events process;
    # event times are strictly increasing between completions (continuous
    # think-time sums), so end-time order is the serial record order.
    outcomes.sort(key=lambda o: (o.end_time, o.client_id, o.txn_id))
    collector = MetricsCollector(config.warmup_transactions)
    for outcome in outcomes:
        collector.record_outcome(outcome)

    op_waits = {}
    for payload in payloads:
        op_waits.update(payload["op_waits"])
    all_waits = [wait for client_id in sorted(op_waits)
                 for wait in op_waits[client_id]]
    wait_count = len(all_waits)
    mean_op_wait = sum(all_waits) / wait_count if wait_count else 0.0
    server_stats = {
        "aborts_initiated": sum(payload["aborts_initiated"]
                                for payload in payloads),
        "mean_op_wait": mean_op_wait,
        "n_ops_granted": wait_count,
    }
    for attr in ("deadlocks_found", "windows_dispatched", "avoidance_aborts",
                 "grafted_reads", "callbacks_sent", "cache_hits"):
        if any(attr in payload["server_attrs"] for payload in payloads):
            server_stats[attr] = sum(
                payload["server_attrs"].get(attr, 0)
                for payload in payloads)
    if any(payload["has_fl"] for payload in payloads):
        fl_lengths = [length for payload in payloads
                      for length in payload["fl_lengths"]]
        server_stats["mean_fl_length"] = (
            sum(fl_lengths) / len(fl_lengths) if fl_lengths else 0.0)
    twopc_commits = set()
    twopc_aborts = set()
    for payload in payloads:
        twopc_commits |= payload["twopc_commits"]
        twopc_aborts |= payload["twopc_aborts"]
    conflicted = twopc_commits & twopc_aborts
    if conflicted:
        raise AssertionError(
            f"2PC atomicity violated under {config.protocol} "
            f"(seed {seed}): txns {sorted(conflicted)[:5]} committed "
            f"at one shard and aborted at another")
    server_stats["n_shards"] = config.n_shards
    server_stats["twopc_commits"] = len(twopc_commits)
    server_stats["twopc_aborts"] = len(twopc_aborts)
    server_stats["presumed_aborts"] = sum(payload["presumed_aborts"]
                                          for payload in payloads)
    # Single-shard transactions cannot form cross-shard cycles, so the
    # serial run's global detector (s-2PL) never finds a victim.
    server_stats["distributed_deadlocks"] = 0

    processed = sum(payload["processed_events"] for payload in payloads)
    engine_stats = {
        "processed_events": processed,
        "peak_heap_depth": max(payload["peak_heap_depth"]
                               for payload in payloads),
        "cancelled_events": sum(payload["cancelled_events"]
                                for payload in payloads),
        "wall_seconds": wall_seconds,
        "events_per_sec": (processed / wall_seconds
                           if wall_seconds > 0 else 0.0),
        "lp_workers": len(payloads),
        # Per-shard simulation CPU time (time.process_time in each
        # worker): the critical path on an unloaded multicore host is
        # max + spawn/merge overhead, regardless of how this host's
        # cores were shared during the measurement.
        "lp_max_worker_cpu_seconds": max(
            payload.get("cpu_seconds", 0.0) for payload in payloads),
        "lp_total_worker_cpu_seconds": sum(
            payload.get("cpu_seconds", 0.0) for payload in payloads),
    }
    return SimulationResult(
        config=config,
        seed=seed,
        metrics=collector.metrics,
        duration=max(payload["now"] for payload in payloads),
        messages_sent=sum(payload["messages_sent"]
                          for payload in payloads),
        data_units_sent=sum(payload["data_units_sent"]
                            for payload in payloads),
        serializability=None,  # checked per worker; see _shard_payload
        server_stats=server_stats,
        engine_stats=engine_stats,
        trace=None,
    )


def run_lp_simulation(config, seed=None, check_serializability=None,
                      lookahead=None):
    """Run one simulation as ``n_shards`` logical processes and return a
    :class:`~repro.core.runner.SimulationResult` bit-identical to the
    serial run.

    ``lookahead`` overrides the derived synchronization lookahead (test
    hook: a finite value forces the windowed protocol even though a
    shard-local workload needs no synchronization at all).
    """
    validate_lp_config(config)
    if seed is None:
        seed = config.seed
    if check_serializability is None:
        check_serializability = config.record_history
    if lookahead is None:
        lookahead = derive_lookahead(config)
    if not lookahead > 0.0:
        raise ValueError(f"lookahead must be positive, got {lookahead!r}")

    wall_start = time.perf_counter()
    ctx = get_context("spawn")
    workers = []
    try:
        for shard in range(config.n_shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_lp_worker,
                args=(child_conn, config, seed, shard, lookahead,
                      check_serializability),
                daemon=True)
            proc.start()
            child_conn.close()
            workers.append((proc, parent_conn))
        if math.isinf(lookahead):
            payloads = [_recv(conn, proc, shard)[1]
                        for shard, (proc, conn) in enumerate(workers)]
        else:
            payloads = _drive_windows(workers, lookahead)
    finally:
        for proc, conn in workers:
            conn.close()
            proc.join(timeout=_JOIN_TIMEOUT)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=5.0)
    wall_seconds = time.perf_counter() - wall_start
    return _merge_results(config, seed, payloads, wall_seconds)
