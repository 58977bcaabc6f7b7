"""LP-partitioned parallel execution: one process per shard.

A sharded run with a shard-local workload (``cross_shard_probability=0``)
decomposes into ``n_shards`` independent *logical processes* (LPs): shard
``k``'s home server plus the clients homed on it
(:func:`~repro.protocols.sharding.home_clients`). Each LP is an ordinary
:func:`~repro.core.runner.assemble` of that one shard — the same sites,
streams, control and drivers the serial run would give it — on its own
:class:`~repro.sim.engine.Simulator` heap in its own OS process, run to
its own quota-done event. The parent merges the per-LP results, through
the serial runner's own :func:`~repro.core.runner.merge_server_stats`,
into a :class:`~repro.core.runner.SimulationResult` that is
**bit-identical** to the serial run of the same config — the golden
fingerprints in ``tests/golden`` (and ``tests/test_lp.py``) enforce this.

Which configs qualify is a set of rows in the registry's rejection table
(:data:`repro.protocols.registry.REJECTIONS`, the ``lp-*`` rules),
checked when the ``SimulationConfig`` is constructed.

Why the decomposition is exact
------------------------------

* **Transaction ids and quotas** are pure functions of
  ``(client_id, position)`` under ``termination="quota"``
  (:class:`~repro.workload.driver.QuotaRunControl`), so an LP worker
  mints exactly the ids the serial run would, with no shared counter.
* **Random streams** are name-derived
  (:class:`~repro.sim.rng.RandomStreams`): ``client7.txn`` yields the
  same draws whether or not client 3's streams were ever created.
  (Adaptive window sizing is the one server-side consumer — hold dither
  draws from a run-wide ``adapt.controller`` stream in global event
  order — and is rejected; ``hybrid`` and ``g2pl-spec`` draw nothing.)
* **The workload is shard-closed** at ``cross_shard_probability=0``:
  every message of a transaction flows between its client and its home
  server, both inside one LP. The serial trajectory restricted to one
  shard's sites is therefore a complete, self-contained event history —
  the same floats in the same order the LP worker computes. (Heap ties
  between *different* LPs' events never carry information across the
  partition boundary, because no handler reads another shard's state.)
  No LP ever needs to hear from another, so there is nothing to
  synchronize: each worker free-runs, and one that is nevertheless
  handed a message for a site it does not host fails loudly.
* **The s-2PL global deadlock detector is omitted** in LP workers (a lone
  hosted shard has no cross-server cycle): with single-shard transactions
  the union wait-for graph is the disjoint union of the per-shard graphs,
  each kept acyclic by local detection at request time, so the periodic
  sweep can never find a victim. Its timer events perturb only
  unfingerprinted engine counters.
* **A g-2PL shard's precedence DAG is private to its worker**: the shared
  DAG of the serial run is the disjoint union of per-shard components.

Nested pools: when this process is itself a worker (``--lp`` inside
``--jobs N``), spawning grandchildren would oversubscribe the machine,
so the caller (:func:`repro.core.runner.run_simulation`) falls back to
the ordinary serial path with a warning — sound because the LP result is
identical to the serial one by construction.
"""

import multiprocessing
import time
from multiprocessing import get_context

from repro.core.runner import SimulationResult, assemble, merge_server_stats
from repro.stats.collector import MetricsCollector

#: Worker processes get this long to deliver their result before the
#: parent declares the run wedged (wall-clock; generous on purpose).
_JOIN_TIMEOUT = 60.0


def in_worker_process():
    """True when this process is itself a multiprocessing child (a
    ``--jobs`` pool worker must not spawn LP grandchildren)."""
    return multiprocessing.parent_process() is not None


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


def _lp_worker(conn, config, seed, shard, check_serializability):
    """Worker entry point (top-level so the spawn pickler finds it)."""
    try:
        built = assemble(config, seed, shards=[shard],
                         collector=_OutcomeLog())
        sim = built.sim
        cpu_start = time.process_time()
        try:
            built.run(config)
        except KeyError as exc:
            if "unknown destination site" in str(exc):
                raise RuntimeError(
                    f"cross-LP message in shard {shard} ({exc}): the "
                    f"workload broke the cross_shard_probability=0 "
                    f"contract") from exc
            raise
        cpu_seconds = time.process_time() - cpu_start
        # Shard-local histories are complete histories (item sets are
        # disjoint across shards), so serializability decomposes.
        built.check(config, seed, check_serializability)
        conn.send(("result", {
            "shard": shard,
            "outcomes": built.collector.outcomes,
            "op_waits": {client_id: list(client.op_waits)
                         for client_id, client in built.clients.items()},
            "now": sim.now,
            "messages_sent": built.network.stats.messages_sent,
            "data_units_sent": built.network.stats.data_units_sent,
            "server_stats": [server.stats() for server in built.servers],
            "processed_events": sim.processed_events,
            "peak_heap_depth": sim.peak_heap_depth,
            "cancelled_events": sim.cancelled_events,
            "cpu_seconds": cpu_seconds,
        }))
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


def _recv(conn, proc, shard):
    """One worker's result payload, with error translation."""
    try:
        tag, payload = conn.recv()
    except EOFError:
        raise RuntimeError(
            f"LP worker for shard {shard} died without a result "
            f"(exitcode {proc.exitcode})") from None
    if tag == "error":
        raise RuntimeError(f"LP worker for shard {shard} failed: {payload}")
    return payload


def _merge_results(config, seed, payloads, wall_seconds):
    """Assemble the parent-side :class:`SimulationResult` from the
    per-shard payloads (shard order)."""
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
    # distributed_deadlocks stays 0: single-shard transactions cannot form
    # cross-shard cycles, so the serial run's global detector (s-2PL)
    # never finds a victim.
    server_stats = merge_server_stats(
        config, seed,
        [stats for payload in payloads for stats in payload["server_stats"]],
        op_waits)

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
            payload["cpu_seconds"] for payload in payloads),
        "lp_total_worker_cpu_seconds": sum(
            payload["cpu_seconds"] for payload in payloads),
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
        serializability=None,  # checked per worker
        server_stats=server_stats,
        engine_stats=engine_stats,
        trace=None,
    )


def run_lp_simulation(config, seed=None, check_serializability=None):
    """Run one simulation as ``n_shards`` logical processes and return a
    :class:`~repro.core.runner.SimulationResult` bit-identical to the
    serial run."""
    if seed is None:
        seed = config.seed
    if check_serializability is None:
        check_serializability = config.record_history

    wall_start = time.perf_counter()
    ctx = get_context("spawn")
    workers = []
    try:
        for shard in range(config.n_shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_lp_worker,
                args=(child_conn, config, seed, shard,
                      check_serializability),
                daemon=True)
            proc.start()
            child_conn.close()
            workers.append((proc, parent_conn))
        payloads = [_recv(conn, proc, shard)
                    for shard, (proc, conn) in enumerate(workers)]
    finally:
        for proc, conn in workers:
            conn.close()
            proc.join(timeout=_JOIN_TIMEOUT)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=5.0)
    wall_seconds = time.perf_counter() - wall_start
    return _merge_results(config, seed, payloads, wall_seconds)
