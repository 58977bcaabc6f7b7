"""Per-endpoint result payloads and their cross-process merge.

A live run produces one JSON payload per endpoint process (the server
and every client). Each payload carries that endpoint's *local* view:
its tracer's finished transaction records **and** partial
accumulators (round charges made on behalf of transactions owned by
other endpoints — see :meth:`repro.obs.tracer.Tracer.partial_records`),
its slice of the recorded history, and its traffic counters.

The harness merges the payloads back into the single-run shape the
simulator produces natively: one :class:`~repro.validate.history
.HistoryRecorder`, one complete per-transaction record per transaction.
Round charges are summed across endpoints; ``rounds_sequential`` and the
``lock_wait`` residual are recomputed from the merged components, so a
merged record is directly comparable with the simulator's record for the
same transaction.
"""

import json

from repro.locking.modes import LockMode
from repro.obs.summary import NON_SEQUENTIAL_ROUND_KINDS
from repro.validate.history import HistoryRecorder

#: wire-accounting component keys merged additively across endpoints
_COMPONENT_KEYS = ("propagation", "transmission", "slack", "server_queue",
                   "client_think")

#: phase sub-accounts (see :mod:`repro.obs.spans`), also summed across
#: endpoints; absent from pre-phase payloads, so merged with a 0 default
_PHASE_KEYS = ("commit_coord", "abort_resolution", "overhead")


def endpoint_payload(endpoint):
    """Everything one :class:`~repro.live.endpoint.Endpoint` contributes
    to the merged run."""
    kernel, transport = endpoint.kernel, endpoint.transport
    tracer, history = endpoint.assembly.tracer, endpoint.assembly.history
    trace = tracer.finish(processed_events=kernel.processed_events,
                          peak_heap_depth=kernel.peak_heap_depth)
    payload = {
        "role": endpoint.role,
        "site": endpoint.site_id,
        "protocol": endpoint.spec.config.protocol,
        "mode": endpoint.spec.mode,
        "txn_records": list(trace.txns),
        "partial_records": tracer.partial_records(),
        "history": {
            "accesses": [[a.txn_id, a.item_id, a.mode.name, a.version,
                          a.time] for a in history.accesses],
            "committed": sorted(history.committed),
            "aborted": sorted(history.aborted),
            "commit_times": {str(txn): t
                             for txn, t in history.commit_times.items()},
        },
        "net": {
            "messages_sent": transport.stats.messages_sent,
            "data_units_sent": transport.stats.data_units_sent,
            "per_type": dict(transport.stats.per_type),
        },
        "engine": {
            "processed_events": kernel.processed_events,
            "peak_heap_depth": kernel.peak_heap_depth,
            "cancelled_events": kernel.cancelled_events,
            "end_time": kernel.now,
        },
    }
    if endpoint.spec.trace_export:
        # All timestamps are already on the shared CLOCK_MONOTONIC origin
        # (every kernel pins sim time zero to the same instant), so the
        # harness can interleave the per-process streams into one timeline
        # without any clock translation.
        payload["trace_events"] = [[when, kind, fields]
                                   for when, kind, fields in trace.events]
        payload["probes"] = [[when, name, value]
                             for when, name, value in trace.probes]
    return payload


def write_payload(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def load_payload(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class MergedRun:
    """The single-run view reassembled from all endpoint payloads."""

    def __init__(self, payloads):
        self.payloads = list(payloads)
        self.history = HistoryRecorder()
        self.records = {}       # txn_id -> complete per-txn record
        self.orphans = []       # partials with no finished owner record
        self.messages_sent = 0
        self.data_units_sent = 0.0
        self.per_type = {}
        self._merge()

    def _merge(self):
        accesses = []
        for payload in self.payloads:
            hist = payload["history"]
            accesses.extend(hist["accesses"])
            for txn in hist["committed"]:
                self.history.committed.add(txn)
            for txn in hist["aborted"]:
                self.history.aborted.add(txn)
            for txn, when in hist["commit_times"].items():
                self.history.commit_times[int(txn)] = when
            net = payload["net"]
            self.messages_sent += net["messages_sent"]
            self.data_units_sent += net["data_units_sent"]
            for kind, count in net["per_type"].items():
                self.per_type[kind] = self.per_type.get(kind, 0) + count
            for record in payload["txn_records"]:
                txn = record["txn"]
                if txn in self.records:
                    raise ValueError(
                        f"txn {txn} finished on two endpoints")
                merged = dict(record, rounds=dict(record["rounds"]))
                for key in _PHASE_KEYS:
                    merged.setdefault(key, 0.0)
                self.records[txn] = merged
        # History accesses in global time order — the order the simulator
        # would have appended them in a single-recorder run.
        accesses.sort(key=lambda a: (a[4], a[0], a[1]))
        for txn, item, mode, version, when in accesses:
            self.history.record_access(txn, item, LockMode[mode], version,
                                       when)
        for payload in self.payloads:
            for partial in payload["partial_records"]:
                record = self.records.get(partial["txn"])
                if record is None:
                    self.orphans.append(dict(partial,
                                             site=payload["site"]))
                    continue
                rounds = record["rounds"]
                for kind, count in partial["rounds"].items():
                    rounds[kind] = rounds.get(kind, 0) + count
                for key in _COMPONENT_KEYS:
                    record[key] += partial[key]
                for key in _PHASE_KEYS:
                    record[key] += partial.get(key, 0.0)
        for record in self.records.values():
            record["rounds_sequential"] = sum(
                count for kind, count in record["rounds"].items()
                if kind not in NON_SEQUENTIAL_ROUND_KINDS)
            explained = sum(record[key] for key in _COMPONENT_KEYS)
            record["lock_wait"] = (record["response"] - explained
                                   - record["overhead"])
        self._enforce_span_invariant()

    def _enforce_span_invariant(self):
        """Decomposition exactness, checked at merge as promised.

        Every merged record's phase spans must sum to its measured
        response time. The residual construction makes this an identity,
        so a failure here always means a charging bug (a component merged
        twice, a phase charged outside the response window) — raise
        loudly rather than report a silently-wrong decomposition.
        """
        from repro.obs.spans import sum_violation

        violations = []
        for record in self.records.values():
            if not record.get("measured", True):
                continue
            bad = sum_violation(record)
            if bad is not None:
                violations.append(bad)
        if violations:
            raise AssertionError(
                "live merge broke the span-sum invariant:\n  "
                + "\n  ".join(violations[:10]))

    # -- views ----------------------------------------------------------------

    def measured_committed(self):
        """Records entering the calibration, keyed by txn id."""
        return {txn: record for txn, record in self.records.items()
                if record["measured"] and record["committed"]}

    @property
    def committed(self):
        return self.history.committed
