"""The trace event schema and its validator (used by CI's chaos smoke)."""

#: event kind -> its columns, in row order: the one place that names a
#: kind's fields. ``Tracer.row`` call sites pass the values in this order
#: and the tracer refuses an event with other names or another count.
#: None may be ``type``, ``t`` or ``kind``, the exported
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

#: A transaction's response, accounted: the one place that names the
#: parts. Its time on the wire (``WIRE``) and its client's think time are
#: the additive ``COMPONENTS``. The ``SUB_ACCOUNTS`` name time within or
#: beside them: ``commit_coord`` and ``abort_resolution`` re-attribute
#: wire flights of 2PC coordination and of abort resolution, and
#: ``overhead`` is live-only process time outside the components. The
#: ``RESIDUAL`` is what is left of the response: time blocked on other
#: transactions' locks.
WIRE = ("propagation", "transmission", "slack")
COMPONENTS = (*WIRE, "client_think")
SUB_ACCOUNTS = ("commit_coord", "abort_resolution", "overhead")
RESIDUAL = "lock_wait"
#: a record's account keys, in record order (each summed by
#: :class:`~repro.obs.summary.TraceSummary`)
ACCOUNT = (*COMPONENTS, *SUB_ACCOUNTS, RESIDUAL)

#: the phases (:mod:`repro.obs.spans`), disjoint and summing exactly to
#: the response: ``network`` is the wire time left after the two carved
#: sub-accounts, each other phase its account key. Their Chrome
#: trace-viewer reserved color names (Perfetto palette), in report order.
PHASE_COLORS = {
    "network": "thread_state_running",          # green
    "client_think": "rail_idle",                # pale
    "commit_coord": "thread_state_iowait",      # orange
    "abort_resolution": "terrible",             # red
    "overhead": "bad",                          # amber
    "lock_wait": "grey",
}
PHASES = tuple(PHASE_COLORS)

#: what a transaction's Chrome-trace span carries in its args besides its
#: rounds (its phases are the slices nested under it)
SPAN_ARGS = (RESIDUAL, "propagation", "client_think")

#: a finished transaction's record, its keys in order. A sharded record
#: carries ``rounds_by_shard`` after ``lock_wait``; an unfinished one (see
#: ``Tracer.close``) carries ``unfinished`` after ``measured``.
TXN_RECORD_FIELDS = (
    "txn", "client", "rounds", "rounds_sequential", *ACCOUNT,
    "committed", "measured", "start", "end", "response", "n_ops",
    "abort_reason",
)

#: keys every per-transaction accounting record must carry
TXN_RECORD_KEYS = frozenset(TXN_RECORD_FIELDS)


def validate_events(events, max_errors=20):
    """Check a trace's event stream against :data:`EVENT_SCHEMA`.

    Returns a list of error strings (empty = valid): unknown kinds and
    non-monotonic timestamps. A kind's field names need no check here:
    :class:`~repro.obs.tracer.Tracer` refuses a row that does not carry
    its kind's columns.
    """
    errors = []
    previous_time = float("-inf")
    for index, (time, kind, _) in enumerate(events):
        if len(errors) >= max_errors:
            errors.append("... (further errors suppressed)")
            break
        if time < previous_time:
            errors.append(
                f"event {index} ({kind}): time {time} < previous "
                f"{previous_time} (trace must be time-ordered)")
        previous_time = time
        if kind not in EVENT_SCHEMA:
            errors.append(f"event {index}: unknown kind {kind!r}")
    return errors


def validate_trace(trace):
    """Validate a full :class:`~repro.obs.tracer.TraceData`."""
    errors = validate_events(trace.events)
    for index, record in enumerate(trace.txns):
        missing = TXN_RECORD_KEYS - record.keys()
        if missing:
            errors.append(
                f"txn record {index}: missing keys {sorted(missing)}")
    return errors
