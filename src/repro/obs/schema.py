"""The trace event schema and its validator (used by CI's chaos smoke)."""

#: event kind -> required field names (extra fields are allowed, but
#: every event of one kind must carry the same names in the same order:
#: the tracer keeps them once per kind and exporters compile per kind)
EVENT_SCHEMA = {
    # sim engine (only with engine-event tracing enabled)
    "engine.dispatch": frozenset({"depth"}),
    # network
    "msg.send": frozenset({"id", "src", "dst", "msg", "size", "deliver"}),
    "msg.deliver": frozenset({"id", "src", "dst"}),
    "msg.drop": frozenset({"id", "src", "dst", "cause"}),
    "msg.dup": frozenset({"id", "src", "dst"}),
    "msg.retransmit": frozenset({"src", "dst"}),
    "msg.dup_suppressed": frozenset({"site", "src"}),
    # locking (s-2PL family)
    "lock.request": frozenset({"txn", "item", "mode", "client"}),
    "lock.queued": frozenset({"txn", "item"}),
    "lock.grant": frozenset({"txn", "item", "mode"}),
    "lock.release": frozenset({"txn", "granted"}),
    "lock.deadlock": frozenset({"requester", "victim", "cycle"}),
    "lock.deadlock.distributed": frozenset({"victim", "cycle", "shard"}),
    # transaction lifecycle
    "txn.begin": frozenset({"txn", "client"}),
    "txn.end": frozenset({"txn", "client", "committed", "response"}),
    "txn.abort": frozenset({"txn", "reason"}),
    # fault recovery
    "crash.sweep": frozenset({"reclaimed"}),
    # g-2PL forward lists and chains
    "fl.collect": frozenset({"txn", "item", "window"}),
    "fl.window_open": frozenset({"item", "carried"}),
    "fl.window_close": frozenset({"item", "size"}),
    "fl.dispatch": frozenset({"item", "n_txns", "epoch"}),
    "fl.home": frozenset({"item"}),
    "fl.graft": frozenset({"txn", "item"}),
    "fl.handoff": frozenset({"txn", "item", "to"}),
    "fl.return": frozenset({"txn", "item"}),
    "fl.watchdog": frozenset({"item", "attempt"}),
    "fl.repair": frozenset({"item", "action", "crashed"}),
    "chain.commit": frozenset({"txn"}),
    # cross-shard two-phase commit (sharded runs)
    "twopc.prepare": frozenset({"txn", "shard", "vote"}),
    "twopc.vote.piggyback": frozenset({"txn", "shard"}),
    "twopc.decision": frozenset({"txn", "shard", "commit"}),
    "twopc.terminate": frozenset({"txn", "shard", "peers"}),
    "twopc.terminate.commit": frozenset({"txn", "shard"}),
    "twopc.terminate.abort": frozenset({"txn", "shard"}),
    # adaptive controllers (repro.adapt)
    "hybrid.switch": frozenset({"item", "mode", "epoch", "score"}),
    "window.hold": frozenset({"item", "hold", "depth"}),
    "spec.extend": frozenset({"item", "tail", "n_txns"}),
    "spec.accept": frozenset({"item", "tail", "n_txns"}),
    "spec.decline": frozenset({"item", "tail"}),
    "spec.repair": frozenset({"item", "epoch", "n_txns"}),
    "spec.splice": frozenset({"txn", "item"}),
    "spec.refuse": frozenset({"txn", "item"}),
}

#: keys every per-transaction accounting record must carry
TXN_RECORD_KEYS = frozenset({
    "txn", "client", "committed", "measured", "start", "end", "response",
    "rounds", "rounds_sequential", "propagation", "transmission", "slack",
    "server_queue", "client_think", "lock_wait",
    "commit_coord", "abort_resolution", "overhead",
})


def validate_events(events, max_errors=20):
    """Check a trace's event stream against :data:`EVENT_SCHEMA`.

    Returns a list of error strings (empty = valid): unknown kinds,
    missing required fields, a kind whose events disagree on their field
    names, and non-monotonic timestamps.
    """
    errors = []
    previous_time = float("-inf")
    columns = {}
    for index, (time, kind, fields) in enumerate(events):
        if len(errors) >= max_errors:
            errors.append("... (further errors suppressed)")
            break
        if time < previous_time:
            errors.append(
                f"event {index} ({kind}): time {time} < previous "
                f"{previous_time} (trace must be time-ordered)")
        previous_time = time
        required = EVENT_SCHEMA.get(kind)
        if required is None:
            errors.append(f"event {index}: unknown kind {kind!r}")
            continue
        missing = required - fields.keys()
        if missing:
            errors.append(
                f"event {index} ({kind}): missing fields {sorted(missing)}")
        names = tuple(fields)
        if columns.setdefault(kind, names) != names:
            errors.append(
                f"event {index} ({kind}): fields {names} differ from the "
                f"kind's columns {columns[kind]}")
    return errors


def validate_trace(trace):
    """Validate a full :class:`~repro.obs.tracer.TraceData`."""
    errors = validate_events(trace.events)
    for index, record in enumerate(trace.txns):
        missing = TXN_RECORD_KEYS - record.keys()
        if missing:
            errors.append(
                f"txn record {index}: missing keys {sorted(missing)}")
    for index, sample in enumerate(trace.probes):
        if len(sample) != 3:
            errors.append(f"probe sample {index}: expected "
                          f"(time, name, value), got {sample!r}")
    return errors
