"""Direct-drive cells: the null-baseline ladder.

Each cell times public calls of one layer with nothing else on the path,
for about ``CELL_SECONDS``, in reference-host time per operation.  The
ladder subtracts rungs the way SNIPPETS.md §2 subtracts ``SELECT 1``:
``network.ns_per_send`` is a send-and-deliver minus the bare engine event
that carries it.

A cell builder resolves its symbols through ``surface.need`` and returns
``batch``, a zero-argument callable that performs a fixed batch and
returns its operation count.  Cells are independent of the workload and
of the seed.
"""

import random
import time

import surface
from surface import need

CELL_SECONDS = 0.15


def _sim_events(depth):
    def build():
        simulator_class = need("Simulator")

        def batch(events=20_000):
            sim = simulator_class()
            left = [events - depth]

            def tick(lane):
                if left[0] > 0:
                    left[0] -= 1
                    sim.call_later(1.0 + (lane * 7) % 13, tick, lane)

            for lane in range(depth):
                sim.call_later(float(lane % 5), tick, lane)
            sim.run()
            return sim.processed_events
        return batch
    return build


def _noop():
    pass


def _timer_cancel():
    simulator_class, timer_class = need("Simulator"), need("Timer")

    def batch(timers=5_000):
        sim = simulator_class()
        for index in range(timers):
            timer_class(sim, 1.0 + index % 7, _noop).cancel()
        sim.run()
        return timers
    return batch


def _network_send():
    simulator_class, network_class = need("Simulator"), need("Network")
    site_class, topology_class = need("Site"), need("UniformTopology")

    class Pong(site_class):
        def __init__(self, site_id, peer_id, budget):
            super().__init__(site_id)
            self.peer_id = peer_id
            self.budget = budget

        def receive(self, envelope):
            if self.budget > 0:
                self.budget -= 1
                self.send(self.peer_id, envelope.payload, size=2.0)

    def batch(pings=5_000):
        sim = simulator_class()
        network = network_class(sim, topology_class(10.0))
        left = network.add_site(Pong(1, 2, pings))
        network.add_site(Pong(2, 1, pings))
        left.send(2, ("ping", 42), size=2.0)
        sim.run()
        return network.stats.messages_sent
    return batch


def _lock_acquire_release():
    table_class, mode = need("LockTable"), need("LockMode")
    modes = (mode.READ, mode.READ, mode.WRITE)

    def batch(txns=2_000, items=25, live=8):
        table = table_class()
        acquires = 0
        for txn in range(txns):
            for step in range(3):
                table.acquire(txn, (txn * 7 + step * 11) % items,
                              modes[(txn + step) % 3])
                acquires += 1
            if txn >= live:
                table.release_all(txn - live)
        return acquires
    return batch


def _chain_graph(nodes, fan=3):
    """A layered DAG of ``nodes`` transactions, ``fan`` edges each."""
    graph = need("PrecedenceGraph")()
    for node in range(nodes):
        for hop in range(1, fan + 1):
            if node + hop * 5 < nodes:
                graph.add_edge_unchecked(node, node + hop * 5)
    return graph


def _reaches_any(nodes):
    def build():
        graph = _chain_graph(nodes)
        # unreachable targets: the walk visits everything below the source
        targets = [nodes + 1, nodes + 2, nodes + 3]

        def batch(queries=8):
            for query in range(queries):
                graph.reaches_any(query, targets)
            return queries
        return batch
    return build


def _linear_extension(nodes=4096, window=8):
    graph = _chain_graph(nodes)

    def batch(calls=4):
        for call in range(calls):
            graph.linear_extension(
                [(call * 13 + slot * 97) % nodes for slot in range(window)])
        return calls
    return batch


def _workload_spec():
    generator_class, streams_class = (need("WorkloadGenerator"),
                                      need("RandomStreams"))
    params = surface.SimulationConfig().workload_params()

    def batch(specs=2_000):
        generator = generator_class(params, streams_class(73))
        for index in range(specs):
            generator.next_spec(1 + index % 50)
        return specs
    return batch


def _workload_arrival():
    arrivals_class, sampler_class = (need("PoissonArrivals"),
                                     need("ZipfItemSampler"))
    params = surface.SimulationConfig(
        n_items=1000, access_skew=0.5).workload_params()
    sampler = sampler_class(params)

    def batch(arrivals=2_000):
        rng = random.Random(73)
        process = arrivals_class(rng, 0.0016)
        now = 0.0
        for _ in range(arrivals):
            now = process.next_arrival(now)
            sampler.sample(rng, 3)
        return arrivals
    return batch


def _stats_outcome(streaming):
    def build():
        collector_class, outcome_class = (need("MetricsCollector"),
                                          need("TxnOutcome"))
        outcomes = [
            outcome_class(txn_id=index, client_id=1 + index % 50,
                          committed=index % 5 != 0,
                          start_time=10.0 * index,
                          end_time=10.0 * index + 40.0 + index % 17,
                          n_ops=3, n_writes=1,
                          abort_reason=None if index % 5 else "deadlock")
            for index in range(2_000)]

        def batch():
            collector = collector_class(
                warmup_transactions=100, streaming=streaming,
                reservoir_rng=random.Random(73) if streaming else None)
            record = collector.record_outcome
            for outcome in outcomes:
                record(outcome)
            return len(outcomes)
        return batch
    return build


def _obs_emit():
    simulator_class, tracer_class = need("Simulator"), need("Tracer")

    def batch(events=5_000):
        tracer = tracer_class(simulator_class())
        emit = tracer.emit
        for index in range(events):
            emit("ledger.cell", txn=index, item=index % 25)
        return events
    return batch


def _codec_frame():
    encode_frame, decode_frame = need("encode_frame"), need("decode_frame")
    mode = need("LockMode")
    ref, entry, forward_list = need("TxnRef"), need("FLEntry"), need(
        "ForwardList")
    tail = forward_list([
        entry(mode.READ, [ref(11, 3), ref(12, 4), ref(13, 5)]),
        entry(mode.WRITE, [ref(14, 6)]),
        entry(mode.READ, [ref(15, 7), ref(16, 8)]),
        entry(mode.WRITE, [ref(17, 9)])])
    message = need("GShip")(
        txn_id=10, item_id=7, version=3, value=42, mode=mode.READ,
        fl_tail=tail, group=(10, 9), release_to=(14, 6),
        await_releases_from=(8,), epoch=1)

    def batch(frames=500):
        for _ in range(frames):
            decode_frame(encode_frame(message))
        return frames
    return batch


def _fingerprint():
    result = surface.run_simulation(surface.SimulationConfig(
        protocol="g2pl", n_clients=10, n_items=10, network_latency=50.0,
        total_transactions=1000, warmup_transactions=100, seed=73,
        record_history=False))

    def batch():
        surface.digest_of(result)
        return 1
    return batch


#: metric name -> (cell builder, seconds-per-op multiplier for the unit)
CELLS = {
    "sim.ns_per_event": (_sim_events(64), 1e9),
    "sim.ns_per_event_deep": (_sim_events(1024), 1e9),
    "sim.ns_per_timer_cancel": (_timer_cancel, 1e9),
    "network.ns_per_send": (_network_send, 1e9),
    "locking.ns_per_acquire_release": (_lock_acquire_release, 1e9),
    "protocols.precedence.us_per_reaches_any_64": (_reaches_any(64), 1e6),
    "protocols.precedence.us_per_reaches_any_4k": (_reaches_any(4096), 1e6),
    "protocols.precedence.us_per_linear_extension_4k":
        (_linear_extension, 1e6),
    "workload.us_per_spec": (_workload_spec, 1e6),
    "workload.us_per_arrival": (_workload_arrival, 1e6),
    "stats.ns_per_outcome": (_stats_outcome(False), 1e9),
    "stats.ns_per_outcome_streaming": (_stats_outcome(True), 1e9),
    "obs.ns_per_emit": (_obs_emit, 1e9),
    "live.codec.us_per_frame": (_codec_frame, 1e6),
    "perf.fingerprint_ms": (_fingerprint, 1e3),
}
#: rungs subtracted after measuring: metric -> the rung beneath it
LADDER = {"network.ns_per_send": "sim.ns_per_event"}


def run_cells(sampler, seconds=CELL_SECONDS):
    """Measure every cell; returns ``{metric: value | None}`` and
    ``{metric: skipped_reason}`` for the ones whose surface is gone."""
    values, skipped = {}, {}
    for name, (build, per_unit) in CELLS.items():
        try:
            batch = build()
        except surface.SurfaceMissing as exc:
            values[name] = None
            skipped[name] = str(exc)
            continue
        batch()  # first call pays imports and allocator growth
        with sampler.timed() as reading:
            deadline = time.perf_counter() + seconds
            operations = batch()
            while time.perf_counter() < deadline:
                operations += batch()
        values[name] = reading.ref_s / operations * per_unit
    for name, rung in LADDER.items():
        if values[name] is None:
            continue
        if values[rung] is None:
            values[name] = None
            skipped[name] = f"its baseline rung {rung} was skipped"
        else:
            values[name] -= values[rung]
    return values, skipped
