"""Canonical fingerprints of simulation results.

A fingerprint is a plain, JSON-serialisable dict capturing everything a
run produced that is *deterministic*: steady-state metrics, traffic
counters, server statistics, and (when the run was traced) the trace
summary.  Wall-clock quantities (``engine_stats``) are excluded — they
differ between machines and reruns by construction.

Floats are rendered with :func:`repr`, the shortest string that
round-trips exactly, so two fingerprints are equal iff the underlying
results are bit-identical.  The fast-path replay suite keeps goldens of
these fingerprints taken from the pre-optimization kernel; every kernel
optimization must reproduce them byte for byte.
"""

import json

from repro.sim.rng import sha256


def _canon(value):
    """Recursively convert to canonical JSON-ready form (exact floats)."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(key): _canon(item) for key, item in
                sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return repr(value)


def _metrics_fingerprint(metrics):
    if getattr(metrics, "streaming", False):
        # Streaming runs have no exact response-time list; the reservoir
        # contents, running moments, and window counters are deterministic
        # (the reservoir draws from its own seeded stream), so they pin a
        # trajectory just as tightly. Exact-path runs keep the historical
        # structure below byte for byte.
        return {
            "streaming": True,
            "committed": metrics.committed,
            "aborted": metrics.aborted,
            "warmup_discarded": metrics.warmup_discarded,
            "abort_reasons": _canon(dict(metrics.abort_reasons)),
            "first_measured_at": _canon(metrics.first_measured_at),
            "last_measured_at": _canon(metrics.last_measured_at),
            "response_mean": _canon(metrics.moments.mean),
            "response_m2": _canon(metrics.moments.m2),
            "response_count": metrics.moments.count,
            "reservoir_seen": metrics.reservoir.seen,
            "reservoir": _canon(list(metrics.reservoir.values)),
            "windows_total": metrics.windows.total,
            "windows_peak": metrics.windows.peak_count,
        }
    return {
        "committed": metrics.committed,
        "aborted": metrics.aborted,
        "warmup_discarded": metrics.warmup_discarded,
        "response_times": _canon(list(metrics.response_times)),
        "abort_reasons": _canon(dict(metrics.abort_reasons)),
        "first_measured_at": _canon(metrics.first_measured_at),
        "last_measured_at": _canon(metrics.last_measured_at),
    }


def _summary_fingerprint(summary):
    out = {
        "runs": summary.runs,
        "committed": summary.committed,
        "aborted": summary.aborted,
        "rounds_total": summary.rounds_total,
        "rounds_by_kind": _canon(summary.rounds_by_kind),
        "response_sum": _canon(summary.response_sum),
        "propagation_sum": _canon(summary.propagation_sum),
        "transmission_sum": _canon(summary.transmission_sum),
        "server_queue_sum": _canon(summary.server_queue_sum),
        "client_think_sum": _canon(summary.client_think_sum),
        "slack_sum": _canon(summary.slack_sum),
        "lock_wait_sum": _canon(summary.lock_wait_sum),
        "messages_sent": summary.messages_sent,
        "msgs_by_kind": _canon(summary.msgs_by_kind),
        "drops_by_cause": _canon(summary.drops_by_cause),
        "duplicates_injected": summary.duplicates_injected,
        "retransmissions": summary.retransmissions,
        "duplicates_suppressed": summary.duplicates_suppressed,
        "trace_events": summary.trace_events,
        "probe_series": _canon(summary.probe_series),
        "processed_events": summary.processed_events,
        "peak_heap_depth": summary.peak_heap_depth,
    }
    # Only sharded runs populate this; conditional inclusion keeps every
    # pre-sharding fingerprint (and golden digest) byte-identical.
    if summary.rounds_by_shard:
        out["rounds_by_shard"] = _canon({
            str(shard): kinds
            for shard, kinds in summary.rounds_by_shard.items()})
    return out


def result_fingerprint(result):
    """Deterministic fingerprint of one :class:`SimulationResult`."""
    fp = {
        "protocol": result.config.protocol,
        "seed": result.seed,
        "duration": _canon(result.duration),
        "messages_sent": result.messages_sent,
        "data_units_sent": _canon(result.data_units_sent),
        "metrics": _metrics_fingerprint(result.metrics),
        "server_stats": _canon(dict(result.server_stats)),
    }
    if result.trace is not None:
        fp["trace_summary"] = _summary_fingerprint(result.trace.summary)
        fp["trace_events"] = len(result.trace.events)
        # Unfinished records (in flight when the run closed, finalised by
        # Tracer.close) are deterministic but excluded so the count means
        # what it meant before close() existed: transactions that finished.
        fp["trace_txns"] = sum(1 for record in result.trace.txns
                               if not record.get("unfinished"))
        fp["trace_probes"] = len(result.trace.probes)
    return fp


def fingerprint_digest(fingerprint):
    """Stable SHA-256 over the canonical JSON encoding of a fingerprint."""
    encoded = json.dumps(fingerprint, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return sha256(encoded).hexdigest()
