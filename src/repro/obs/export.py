"""Trace exporters: JSONL, Chrome trace-event JSON (Perfetto), CSV.

The Chrome trace maps one simulation time unit to one microsecond, so a
run with latency 500 shows 500 µs wire flights — open the file at
https://ui.perfetto.dev (or chrome://tracing) to scrub the timeline.

JSONL is the full-fidelity export and the one that has to be cheap: a
traced run writes one line per event and per probe sample (174,155 lines
for 3,600 measured transactions on the ledger's ``traced_g2pl``).
:func:`write_jsonl` therefore formats the tracer's flat rows directly —
``(time, kind, *values)`` events, ``(time, series, value)`` probes —
through one ``%``-template per *shape* (the kind or series plus the type
of every slot), compiled the first time the shape is seen. Numbers print
through ``%r``, which is what ``json`` itself uses for an ``int`` and a
finite ``float``; everything else (strings, ``None``, bools, lists, a
non-finite float) is encoded first, value by value, exactly as
``json.dumps`` would — the per-row ``json.dumps`` writer this replaced
lives on as the byte-for-byte oracle in ``tests/helpers.py``.

Lines leave in blocks of :data:`_BLOCK`. The blocks are small on
purpose: the trace is already resident, and whatever the writer holds on
top of it is peak RSS. Joining every line before one ``write`` costs
+43 MB on that workload (56.7 → 99.5 MB), 8,192-line blocks still +6%;
256 lines is ~30 kB, past the point where fewer ``write`` calls save
anything measurable.
"""

import dataclasses
import json
from json.encoder import encode_basestring_ascii
from math import isfinite

from repro.obs.spans import PHASE_COLORS, PHASES, phase_view

#: lines formatted per ``write``; see the module docstring
_BLOCK = 256


def _summary_dict(summary):
    if summary is None:
        return None
    return dataclasses.asdict(summary)


def _json_value(value):
    """One value as JSON text, exactly as ``json.dumps`` prints it."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or kind is float and isfinite(value):
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    return json.dumps(value)


def _literal(text):
    return text.replace("%", "%%")


def _compile(record_type, label, names, row, trust_floats):
    """``(template, convert, floats)`` for rows shaped like ``row``.

    ``template % row`` prints ``{"type": record_type, "t": row[0],
    label: row[1], names[0]: row[2], ...}``. ``row[1]`` — the event kind,
    the probe series — is part of the shape, so its text is in the
    template and its slot prints nothing. ``int`` slots, and ``float``
    slots when ``trust_floats``, are ``%r``: what ``json`` itself uses
    for an int and for a finite float. Every other slot is ``%s`` and
    listed in ``convert``: the caller replaces those values with
    :func:`_json_value` text first. ``floats`` lists the trusted float
    slots; a row holding ``inf`` or ``nan`` in one needs the template
    compiled without trust.
    """
    parts = [_literal(f'{{"type": {json.dumps(record_type)}')]
    convert, floats = [], []
    for slot, key in enumerate(("t", label) + names):
        parts.append(_literal(f", {json.dumps(key)}: "))
        if slot == 1:
            parts.append(_literal(json.dumps(row[1])) + "%.0s")
            continue
        kind = type(row[slot])
        if kind is int:
            parts.append("%r")
        elif kind is float and trust_floats:
            floats.append(slot)
            parts.append("%r")
        else:
            convert.append(slot)
            parts.append("%s")
    parts.append("}\n")
    return "".join(parts), tuple(convert), tuple(floats)


def _write_rows(out, rows, record_type, label, names_of):
    """Write flat ``(time, label value, *values)`` rows as JSON lines.

    One template per shape — the label value plus the type of every slot
    — compiled on first sight by :func:`_compile` (``names_of(row)``
    gives the keys of ``row[2:]``), so a row costs a type scan, a dict
    lookup and one ``%``; lines leave in blocks of :data:`_BLOCK`.
    """
    shapes = {}
    for start in range(0, len(rows), _BLOCK):
        lines = []
        for row in rows[start:start + _BLOCK]:
            key = (row[1], *map(type, row))
            shape = shapes.get(key)
            if shape is None:
                names = names_of(row)
                wary = _compile(record_type, label, names, row, False)
                shape = shapes[key] = (
                    *_compile(record_type, label, names, row, True),
                    wary[:2])
            template, convert, floats, wary = shape
            for slot in floats:
                value = row[slot]
                if value - value != 0.0:  # inf or nan
                    template, convert = wary
                    break
            if convert:
                row = list(row)
                for slot in convert:
                    row[slot] = _json_value(row[slot])
                row = tuple(row)
            lines.append(template % row)
        out.write("".join(lines))


def write_jsonl(path, trace, config=None, seed=None):
    """One JSON object per line: a header, then events, transactions, and
    probe samples in that order."""
    events = trace.events
    rows, columns = events.rows, events.columns

    def of_its_kind(row):
        return columns[row[1]]

    with open(path, "w", encoding="utf-8") as out:
        header = {"type": "header", "seed": seed,
                  "config": config.describe() if config is not None else None,
                  "summary": _summary_dict(trace.summary)}
        out.write(json.dumps(header) + "\n")
        start = 0
        for index, names in sorted(events.odd.items()):
            # a row with field names of its own: a shape of one
            _write_rows(out, rows[start:index], "event", "kind", of_its_kind)
            _write_rows(out, rows[index:index + 1], "event", "kind",
                        lambda row: names)
            start = index + 1
        _write_rows(out, rows[start:] if start else rows, "event", "kind",
                    of_its_kind)
        for record in trace.txns:
            out.write(json.dumps({"type": "txn", **record}) + "\n")
        _write_rows(out, trace.probes, "probe", "name",
                    lambda row: ("value",))
    return path


_PID_CLIENTS = 1
_PID_NETWORK = 2
_PID_PROTOCOL = 3
_PID_PROBES = 4


def _phase_slices(record, pid, tid):
    """Phase-colored child slices nested under a transaction's span.

    The phases are laid back-to-back as a budget bar (their real
    occurrences interleave — e.g. think alternates with waits — but their
    *durations* are exact and sum to the parent span by the decomposition
    invariant). Child slices carry ``cat: "phase"`` so span-counting
    consumers filtering on ``cat: "txn"`` are unaffected.
    """
    slices = []
    cursor = record["start"]
    for name, value in phase_view(record).items():
        if value <= 0.0:
            continue
        slices.append({
            "ph": "X", "cat": "phase", "pid": pid, "tid": tid,
            "ts": cursor, "dur": value, "name": name,
            "cname": PHASE_COLORS[name],
            "args": {"txn": record["txn"]},
        })
        cursor += value
    return slices


def write_chrome_trace(path, trace):
    """Chrome trace-event format: transaction spans per client, message
    flights per link, counter tracks for probes, instants for the rest."""
    out = [
        {"ph": "M", "name": "process_name", "pid": _PID_CLIENTS, "tid": 0,
         "args": {"name": "clients (transactions)"}},
        {"ph": "M", "name": "process_name", "pid": _PID_NETWORK, "tid": 0,
         "args": {"name": "network (message flights)"}},
        {"ph": "M", "name": "process_name", "pid": _PID_PROTOCOL, "tid": 0,
         "args": {"name": "protocol events"}},
        {"ph": "M", "name": "process_name", "pid": _PID_PROBES, "tid": 0,
         "args": {"name": "probes"}},
    ]
    for record in trace.txns:
        label = ("commit" if record["committed"]
                 else record.get("abort_reason") or "abort")
        tid = record["client"] if record["client"] is not None else 0
        out.append({
            "ph": "X", "cat": "txn", "pid": _PID_CLIENTS,
            "tid": tid,
            "ts": record["start"],
            "dur": max(record["response"], 0.0),
            "name": f"txn {record['txn']} ({label})",
            "args": {"rounds_sequential": record["rounds_sequential"],
                     "rounds": record["rounds"],
                     "lock_wait": record["lock_wait"],
                     "propagation": record["propagation"],
                     "client_think": record["client_think"]},
        })
        out.extend(_phase_slices(record, _PID_CLIENTS, tid))
    link_tids = {}
    for time, kind, fields in trace.events:
        if kind == "msg.send":
            link = (fields["src"], fields["dst"])
            tid = link_tids.get(link)
            if tid is None:
                tid = link_tids[link] = len(link_tids) + 1
                out.append({"ph": "M", "name": "thread_name",
                            "pid": _PID_NETWORK, "tid": tid,
                            "args": {"name": f"{link[0]} to {link[1]}"}})
            out.append({
                "ph": "X", "cat": "msg", "pid": _PID_NETWORK, "tid": tid,
                "ts": time, "dur": max(fields["deliver"] - time, 0.0),
                "name": fields["msg"],
                "args": {"id": fields["id"], "size": fields["size"]},
            })
        elif kind.startswith("engine."):
            continue  # too hot for a useful timeline
        else:
            args = {key: value for key, value in fields.items()
                    if isinstance(value, (int, float, str, bool))
                    or value is None}
            out.append({"ph": "i", "s": "p", "cat": "protocol",
                        "pid": _PID_PROTOCOL, "tid": 0, "ts": time,
                        "name": kind, "args": args})
    for time, name, value in trace.probes:
        out.append({"ph": "C", "pid": _PID_PROBES, "tid": 0, "ts": time,
                    "name": name, "args": {"value": value}})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": out, "displayTimeUnit": "ms"}, handle)
    return path


def write_probes_csv(path, trace):
    """Probe samples as ``time,series,value`` rows (numbers by ``repr``:
    they parse back to the recorded floats)."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("time,series,value\n")
        for time, name, value in trace.probes:
            out.write(f"{time!r},{name},{value!r}\n")
    return path


def write_phases_csv(path, records):
    """Per-transaction phase decomposition as CSV, one row per txn
    (numbers by ``repr``, so a row read back still sums to its response)."""
    with open(path, "w", encoding="utf-8") as out:
        out.write("txn,client,committed,response,"
                  + ",".join(PHASES) + "\n")
        for record in records:
            phases = phase_view(record)
            out.write(
                f"{record['txn']},{record['client']},"
                f"{int(bool(record['committed']))},{record['response']!r},"
                + ",".join(f"{phases[name]!r}" for name in PHASES) + "\n")
    return path


def write_merged_chrome_trace(path, payloads):
    """One Chrome trace for a whole live run: every endpoint process gets
    its own pid lane, with its transactions (phase-colored), its event
    instants, and its probe counters interleaved on the shared
    CLOCK_MONOTONIC origin all kernels were pinned to.

    ``payloads`` are endpoint payload dicts (see
    :func:`repro.live.results.endpoint_payload`) whose ``trace_events`` /
    ``probes`` entries exist when the run's spec set ``trace_export``.
    JSON round-trips tuples as lists, so both shapes are accepted.
    """
    out = []
    for index, payload in enumerate(sorted(payloads,
                                           key=lambda p: p["site"])):
        pid = 10 + index
        out.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"site {payload['site']} "
                             f"({payload['role']})"}})
        for record in payload["txn_records"]:
            label = ("commit" if record["committed"]
                     else record.get("abort_reason") or "abort")
            out.append({
                "ph": "X", "cat": "txn", "pid": pid, "tid": 0,
                "ts": record["start"],
                "dur": max(record["response"], 0.0),
                "name": f"txn {record['txn']} ({label})",
                "args": {"rounds": record["rounds"],
                         "lock_wait": record["lock_wait"],
                         "overhead": record.get("overhead", 0.0)},
            })
            out.extend(_phase_slices(record, pid, 0))
        for event in payload.get("trace_events", []):
            when, kind, fields = event
            if kind == "msg.send":
                out.append({
                    "ph": "X", "cat": "msg", "pid": pid, "tid": 1,
                    "ts": when,
                    "dur": max(fields["deliver"] - when, 0.0),
                    "name": fields["msg"],
                    "args": {"src": fields["src"], "dst": fields["dst"],
                             "size": fields["size"]},
                })
            else:
                args = {key: value for key, value in fields.items()
                        if isinstance(value, (int, float, str, bool))
                        or value is None}
                out.append({"ph": "i", "s": "t", "cat": "protocol",
                            "pid": pid, "tid": 2, "ts": when,
                            "name": kind, "args": args})
        for sample in payload.get("probes", []):
            when, name, value = sample
            out.append({"ph": "C", "pid": pid, "tid": 3, "ts": when,
                        "name": name, "args": {"value": value}})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": out, "displayTimeUnit": "ms"}, handle)
    return path
