"""The trace event schema and its validator (used by CI's chaos smoke)."""

#: event kind -> its columns, in row order: the one place that names a
#: kind's fields. ``Tracer.row`` call sites pass the values in this order
#: and the validator requires the names of every event (extra fields are
#: allowed, but all events of one kind must carry the same names in the
#: same order). None may be ``type``, ``t`` or ``kind``, the exported
#: row's own keys: ``msg`` was once a second ``kind`` and lost to it.
EVENT_SCHEMA = {
    # network
    "msg.send": ("id", "src", "dst", "msg", "size", "deliver"),
    "msg.deliver": ("id", "src", "dst"),
    "msg.drop": ("id", "src", "dst", "cause"),
    "msg.dup": ("id", "src", "dst"),
    "msg.retransmit": ("src", "dst"),
    "msg.dup_suppressed": ("site", "src"),
    # locking (s-2PL family)
    "lock.request": ("txn", "item", "mode", "client"),
    "lock.queued": ("txn", "item"),
    "lock.grant": ("txn", "item", "mode"),
    "lock.release": ("txn", "granted"),
    "lock.deadlock": ("requester", "cycle"),
    "lock.deadlock.distributed": ("victim", "cycle", "shard"),
    # transaction lifecycle
    "txn.begin": ("txn", "client"),
    "txn.end": ("txn", "client", "committed", "response"),
    "txn.abort": ("txn", "reason"),
    # fault recovery
    "crash.sweep": ("reclaimed",),
    # g-2PL forward lists and chains
    "fl.collect": ("txn", "item", "window"),
    "fl.window_open": ("item", "carried"),
    "fl.window_close": ("item", "size"),
    "fl.dispatch": ("item", "n_txns", "epoch"),
    "fl.home": ("item",),
    "fl.graft": ("txn", "item"),
    "fl.handoff": ("txn", "item", "to"),
    "fl.return": ("txn", "item"),
    "fl.watchdog": ("item", "attempt"),
    "fl.repair": ("item", "action", "crashed"),
    "chain.commit": ("txn",),
    # cross-shard two-phase commit (sharded runs)
    "twopc.prepare": ("txn", "shard", "vote"),
    "twopc.vote.piggyback": ("txn", "shard"),
    "twopc.decision": ("txn", "shard", "commit"),
    "twopc.terminate": ("txn", "shard", "peers"),
    "twopc.terminate.commit": ("txn", "shard"),
    "twopc.terminate.abort": ("txn", "shard"),
    # the hybrid protocol's contention controller (repro.adapt)
    "hybrid.switch": ("item", "mode", "epoch", "score"),
}

#: a finished transaction's record, its keys in order: the one place that
#: names them. A sharded record carries ``rounds_by_shard`` after
#: ``lock_wait``; an unfinished one (see ``Tracer.close``) carries
#: ``unfinished`` after ``measured``.
TXN_RECORD_FIELDS = (
    "txn", "client", "rounds", "rounds_sequential",
    "propagation", "transmission", "slack", "server_queue", "client_think",
    "commit_coord", "abort_resolution", "overhead", "lock_wait",
    "committed", "measured", "start", "end", "response", "n_ops",
    "abort_reason",
)

#: keys every per-transaction accounting record must carry
TXN_RECORD_KEYS = frozenset(TXN_RECORD_FIELDS)


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
        missing = set(required) - fields.keys()
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
