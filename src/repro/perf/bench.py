"""The kernel benchmark harness (``repro-experiment bench``).

Runs a fixed set of cells spanning the layers the fast path touches:

* ``engine_churn`` — pure kernel micro-benchmark: cancellable-entry
  arm/cancel churn and timeout-driven processes, no network, no
  protocol.  Its events/sec is a proxy for raw machine speed, which
  makes it the natural normaliser when comparing numbers recorded on
  different hosts.
* ``net_ping`` — transport micro-benchmark: two sites exchanging
  messages through :class:`~repro.network.transport.Network`, measuring
  the per-send fast path (envelope construction, delay memoisation,
  FIFO clamp, delivery dispatch).
* ``s2pl_contention`` / ``g2pl_contention`` — the paper's two headline
  protocols on a high-contention workload (40 clients on 12 items).
* ``g2pl_faulted`` — the same kernel under fault injection (loss,
  duplication, jitter, one crash window): exercises the faulted send
  path, the reliable channel, and timer cancellation storms.
* ``g2pl_traced`` — tracing and probes attached: exercises the traced
  send path and the observability hooks.
* ``population_100k`` — the open-arrival population state machine at
  10⁵ logical users (10⁴ in quick mode) with Zipf skew and streaming
  metrics: exercises arrival sampling, user multiplexing, admission
  control, and the bounded-memory metrics path.
* ``hybrid_contention`` — the contention-adaptive hybrid (repro.adapt)
  on the static pair's workload, so controller overhead shows up
  against ``g2pl_contention``.

Every macro cell embeds the deterministic fingerprint digest of its
result, so a bench run doubles as a determinism probe: if a kernel
"optimization" perturbs trajectories, the digest shifts and
:func:`compare_benchmarks` fails the run before any timing is trusted.

Wall-clock numbers are machine-dependent.  ``compare_benchmarks``
therefore supports normalising each cell's speed ratio by the
``engine_churn`` ratio, cancelling host speed out of CI comparisons
against the committed ``BENCH_kernel.json``.  The gate compares time
for equal work, not events/sec (see :func:`_speed_ratio`): a cell that
reaches the same digest with fewer heap entries got faster, not slower.
"""

import json
import platform
import sys
import time
from dataclasses import dataclass

from repro.core.config import SimulationConfig
from repro.perf.fingerprint import fingerprint_digest, result_fingerprint

BENCH_SCHEMA_VERSION = 1

#: bump when a cell's workload definition changes, so digests and
#: events/sec are never compared across incompatible cell definitions
CELL_REVISION = 1

_FAULT_SPEC = "loss=0.03,dup=0.01,jitter=25,crash=2@4000:8000"


@dataclass(frozen=True)
class BenchCell:
    """One named benchmark: a zero-arg runner returning measurements."""

    name: str
    kind: str          # "micro" | "macro"
    description: str
    runner: object     # callable(quick: bool) -> dict


# -- micro cells -------------------------------------------------------------

def _engine_churn(quick):
    """Cancellable-entry arm/cancel churn plus timeout processes on a bare
    kernel."""
    from repro.sim.engine import Simulator, relaxed_gc

    rounds = 4_000 if quick else 20_000
    sim = Simulator()
    arm = sim.call_later_cancellable

    def noop():
        pass

    def churner(offset):
        step = 0
        while step < rounds:
            keep = arm(3.0, noop)
            arm(5.0, noop)[0] = True
            yield sim.timeout(1.0 + (offset + step) % 3)
            keep[0] = True
            step += 1

    for offset in range(4):
        sim.spawn(churner(offset))
    start = time.perf_counter()
    with relaxed_gc():
        sim.run()
    wall = time.perf_counter() - start
    events = sim.processed_events
    return {
        "wall_seconds": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "digest": fingerprint_digest({"events": events,
                                      "now": repr(sim.now)}),
    }


def _net_ping(quick):
    """Two sites ping-ponging payloads through the transport."""
    from repro.network.topology import Site, UniformTopology
    from repro.network.transport import Network
    from repro.sim.engine import Simulator, relaxed_gc

    pings = 10_000 if quick else 50_000

    class Pong(Site):
        def __init__(self, site_id, peer_id, budget):
            super().__init__(site_id)
            self.peer_id = peer_id
            self.budget = budget
            self.received = 0

        def receive(self, envelope):
            self.received += 1
            if self.budget > 0:
                self.budget -= 1
                self.send(self.peer_id, envelope.payload, size=2.0)

    sim = Simulator()
    network = Network(sim, UniformTopology(10.0))
    left = network.add_site(Pong(1, 2, budget=pings))
    right = network.add_site(Pong(2, 1, budget=pings))
    payload = ("ping", 42)
    start = time.perf_counter()
    left.send(2, payload, size=2.0)
    with relaxed_gc():
        sim.run()
    wall = time.perf_counter() - start
    events = sim.processed_events
    return {
        "wall_seconds": wall,
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "messages": network.stats.messages_sent,
        "digest": fingerprint_digest({
            "events": events,
            "messages": network.stats.messages_sent,
            "received": left.received + right.received,
            "now": repr(sim.now),
        }),
    }


# -- macro cells -------------------------------------------------------------

def _macro_config(protocol, quick, **overrides):
    transactions = 400 if quick else 1500
    warmup = 50 if quick else 150
    base = dict(
        protocol=protocol, n_clients=40, n_items=12, read_probability=0.6,
        network_latency=100.0, total_transactions=transactions,
        warmup_transactions=warmup, seed=73, record_history=False)
    base.update(overrides)
    return SimulationConfig(**base)


def _run_macro(config):
    from repro.core.runner import run_simulation

    result = run_simulation(config)
    stats = result.engine_stats
    return {
        "wall_seconds": stats["wall_seconds"],
        "events": stats["processed_events"],
        "events_per_sec": stats["events_per_sec"],
        "peak_heap_depth": stats["peak_heap_depth"],
        "cancelled_events": stats.get("cancelled_events", 0),
        "committed": result.metrics.committed,
        "txns_per_wall_sec": (result.metrics.finished
                              / stats["wall_seconds"]
                              if stats["wall_seconds"] > 0 else 0.0),
        "digest": fingerprint_digest(result_fingerprint(result)),
    }


def _s2pl_contention(quick):
    return _run_macro(_macro_config("s2pl", quick))


def _g2pl_contention(quick):
    return _run_macro(_macro_config("g2pl", quick))


def _g2pl_faulted(quick):
    return _run_macro(_macro_config(
        "g2pl", quick, n_clients=12, n_items=10, faults=_FAULT_SPEC))


def _g2pl_traced(quick):
    return _run_macro(_macro_config(
        "g2pl", quick, trace=True, probe_interval=200.0))


def _population_100k(quick):
    """Open-arrival population with streaming metrics.

    Exercises the population state machine (arrival sampling, user
    multiplexing, admission control, Zipf draws) and the bounded-memory
    metrics path at 10⁵ logical users (10⁴ in quick mode). The offered
    load deliberately exceeds capacity so shedding and busy-skip
    bookkeeping are on the measured path.
    """
    return _run_macro(_macro_config(
        "g2pl", quick, n_clients=50, n_items=1000,
        network_latency=500.0,
        population=10_000 if quick else 100_000,
        arrival_rate=5e-6, access_skew=0.5, streaming=True,
        total_transactions=600 if quick else 2000,
        warmup_transactions=60 if quick else 200))


def _hybrid_contention(quick):
    """The contention-adaptive hybrid on the g2pl_contention workload.

    Same 40-clients-on-12-items cell as the static pair, so the marginal
    cost of the contention controller (per-freeze EWMA update + mode
    decision) shows up directly against ``g2pl_contention``.
    """
    return _run_macro(_macro_config("hybrid", quick))


def bench_cells():
    """The fixed cell set, in run order."""
    return [
        BenchCell("engine_churn", "micro",
                  "bare kernel: timer arm/cancel + timeout churn",
                  _engine_churn),
        BenchCell("net_ping", "micro",
                  "transport send/deliver ping-pong between two sites",
                  _net_ping),
        BenchCell("s2pl_contention", "macro",
                  "s-2PL, 40 clients on 12 items, latency 100",
                  _s2pl_contention),
        BenchCell("g2pl_contention", "macro",
                  "g-2PL, 40 clients on 12 items, latency 100",
                  _g2pl_contention),
        BenchCell("g2pl_faulted", "macro",
                  "g-2PL under loss/dup/jitter and one crash window",
                  _g2pl_faulted),
        BenchCell("g2pl_traced", "macro",
                  "g-2PL with tracing and 200-unit probes attached",
                  _g2pl_traced),
        BenchCell("population_100k", "macro",
                  "open-arrival population (10^5 users full, 10^4 quick), "
                  "Zipf 0.5, streaming metrics",
                  _population_100k),
        BenchCell("hybrid_contention", "macro",
                  "contention-adaptive hybrid on the g2pl_contention "
                  "workload (controller overhead probe)",
                  _hybrid_contention),
    ]


# -- harness -----------------------------------------------------------------

def run_benchmarks(quick=False, repeats=None, progress=None):
    """Run every cell ``repeats`` times, keep the fastest measurement.

    Timing keeps the best of N (standard practice: the minimum is the
    least noise-contaminated estimate of the true cost); deterministic
    fields (events, digest) are asserted identical across repeats.
    """
    if repeats is None:
        repeats = 2 if quick else 3
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cells = {}
    for cell in bench_cells():
        best = None
        for attempt in range(repeats):
            measured = cell.runner(quick)
            if best is None:
                best = measured
            else:
                if measured.get("digest") != best.get("digest"):
                    raise AssertionError(
                        f"bench cell {cell.name!r} is nondeterministic: "
                        f"digest changed between repeats")
                if measured["wall_seconds"] < best["wall_seconds"]:
                    best = measured
            if progress is not None:
                progress(cell.name, attempt + 1, repeats)
        best.update(kind=cell.kind, description=cell.description,
                    repeats=repeats)
        cells[cell.name] = best
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "cell_revision": CELL_REVISION,
        "mode": "quick" if quick else "full",
        "host": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cells": cells,
    }


def write_benchmark(path, results):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_benchmark(path):
    with open(path, "r", encoding="utf-8") as handle:
        results = json.load(handle)
    version = results.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"benchmark file {path!r} has schema_version {version!r}; "
            f"this harness reads {BENCH_SCHEMA_VERSION}")
    return results


@dataclass
class CellComparison:
    """Before/after of one cell."""

    name: str
    baseline_eps: float
    current_eps: float
    ratio: float              # current / baseline speed (raw)
    normalized_ratio: float   # ratio / normaliser-cell ratio
    digest_match: object      # True / False / None (not comparable)

    def describe(self, normalized):
        ratio = self.normalized_ratio if normalized else self.ratio
        flag = ""
        if self.digest_match is False:
            flag = "  DIGEST MISMATCH"
        return (f"  {self.name:18} {self.baseline_eps:>12,.0f} -> "
                f"{self.current_eps:>12,.0f} ev/s  ({ratio:5.2f}x){flag}")


@dataclass
class BenchComparison:
    """Outcome of :func:`compare_benchmarks`."""

    cells: list
    tolerance: float
    normalized: bool
    failures: list

    @property
    def ok(self):
        return not self.failures

    def describe(self):
        lines = [f"benchmark comparison (tolerance {self.tolerance:.0%}"
                 f"{', normalized by engine_churn' if self.normalized else ''}):"]
        lines += [cell.describe(self.normalized) for cell in self.cells]
        if self.failures:
            lines.append("FAILURES:")
            lines += [f"  - {failure}" for failure in self.failures]
        else:
            lines.append("all cells within tolerance")
        return "\n".join(lines)


def _speed_ratio(cur_cell, base_cell, same_work):
    """How fast ``cur_cell`` ran against ``base_cell`` (> 1 is faster).

    Events/sec compares speed only while a cell's work costs the same
    number of heap entries.  When both files run the same cell definition
    (``same_work``) and both cells carry ``events``, the ratio is scaled
    by ``baseline_events / current_events``, which makes it baseline wall
    over current wall — time for the same work — so a change that removes
    events at an equal digest is not read as a slowdown.  Unchanged event
    counts give exactly the events/sec ratio.
    """
    base_eps = base_cell["events_per_sec"]
    ratio = (cur_cell["events_per_sec"] / base_eps if base_eps > 0
             else float("inf"))
    if same_work and base_cell.get("events") and cur_cell.get("events"):
        ratio *= base_cell["events"] / cur_cell["events"]
    return ratio


def compare_benchmarks(current, baseline, tolerance=0.2, normalize=False,
                       check_digests=True):
    """Diff ``current`` against ``baseline``; flag speed regressions.

    A cell fails when its speed ratio (:func:`_speed_ratio`: time for the
    same work where that is known, events/sec otherwise; optionally
    normalised by the ``engine_churn`` ratio to cancel host speed) drops
    below ``1 - tolerance``.  Digest mismatches fail outright when both
    files were produced by the same cell revision and mode — a digest
    shift means the kernel's trajectory changed, and timings of different
    trajectories are not comparable.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance!r}")
    same_work = (
        current.get("mode") == baseline.get("mode")
        and current.get("cell_revision") == baseline.get("cell_revision"))
    comparable_digests = check_digests and same_work
    norm_ratio = 1.0
    if normalize:
        base_churn = baseline["cells"].get("engine_churn")
        cur_churn = current["cells"].get("engine_churn")
        if base_churn and cur_churn and base_churn["events_per_sec"] > 0:
            norm_ratio = _speed_ratio(cur_churn, base_churn, same_work)
    comparisons = []
    failures = []
    for name, base_cell in sorted(baseline["cells"].items()):
        cur_cell = current["cells"].get(name)
        if cur_cell is None:
            failures.append(f"cell {name!r} missing from current run")
            continue
        base_eps = base_cell["events_per_sec"]
        cur_eps = cur_cell["events_per_sec"]
        ratio = _speed_ratio(cur_cell, base_cell, same_work)
        normalized_ratio = ratio / norm_ratio if norm_ratio > 0 else ratio
        digest_match = None
        if comparable_digests and "digest" in base_cell:
            digest_match = base_cell["digest"] == cur_cell.get("digest")
        comparisons.append(CellComparison(
            name=name, baseline_eps=base_eps, current_eps=cur_eps,
            ratio=ratio, normalized_ratio=normalized_ratio,
            digest_match=digest_match))
        effective = normalized_ratio if normalize else ratio
        if effective < 1.0 - tolerance:
            failures.append(
                f"{name}: speed regressed to {effective:.2f}x of "
                f"baseline (tolerance {1.0 - tolerance:.2f}x)")
        if digest_match is False:
            failures.append(
                f"{name}: result digest differs from baseline — the "
                f"kernel's trajectory changed (determinism drift)")
    return BenchComparison(cells=comparisons, tolerance=tolerance,
                           normalized=bool(normalize), failures=failures)
