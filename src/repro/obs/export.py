"""Trace exporters: JSONL, Chrome trace-event JSON (Perfetto), CSV.

The Chrome trace maps one simulation time unit to one microsecond, so a
run with latency 500 shows 500 µs wire flights — open the file at
https://ui.perfetto.dev (or chrome://tracing) to scrub the timeline.

JSONL is the full-fidelity export and the one that has to be cheap: a
traced run writes one line per event and per probe sample (173,541 lines
for 3,600 measured transactions on the ledger's ``traced_g2pl``).
:func:`write_jsonl` therefore formats the tracer's rows straight from
their columns — per kind, ``zip(*columns)`` builds the value tuples in
C (:meth:`~repro.obs.tracer.EventLog.flat`) — and prints only what
varies from one line to the next. A clock reading
is formatted once per run of rows that share it (seven event rows in ten
repeat the one before, and ``repr`` of a float is the dearest thing on a
line; a ``%.0s`` slot would not skip it — of a float it still calls
``str()`` and throws the digits away). The rest of an event goes through
one ``%``-template per *shape* (the kind plus the type of every value),
compiled the first time the shape is seen: numbers print through ``%r``,
which is what ``json`` itself uses for an ``int`` and a finite
``float``; a ``str``, ``bool`` or ``None`` value (``msg``, ``mode``,
``reason``, ``committed``: a handful per slot) is encoded once and baked
into a variant of the template kept under the value; anything else — a
list, a non-finite float, a slot with more than :data:`_BAKED` distinct
strings — goes to ``json.dumps``. A kind whose every column is an array
with no ``inf`` in it has one shape, so its rows skip the type scan and
take the kind's one template. A probe tick's n lines come from one
template, its time formatted once. The per-row ``json.dumps`` writer all
this replaced is the byte-for-byte oracle in ``tests/helpers.py``.

Lines leave in blocks of :data:`_BLOCK`. The blocks are small on
purpose: the trace is already resident, and whatever the writer holds on
top of it is peak RSS. Joining every line before one ``write`` costs
+43 MB on that workload (56.7 → 99.5 MB), 8,192-line blocks still +6%;
256 lines is ~30 kB, past the point where fewer ``write`` calls save
anything measurable.
"""

import dataclasses
import json
from array import array
from itertools import islice
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter

#: lines formatted per ``write``; see the module docstring
_BLOCK = 256
#: template variants kept per shape (a slot with more distinct values is
#: not low-cardinality: its further rows are spelled)
_BAKED = 64
#: stands for the time in a tick template (JSON text holds no raw NUL)
_TIME = "\0"
#: record-line templates kept per log (a list column with more distinct
#: values is not low-cardinality: its further shapes are spelled)
_TXN_SHAPES = 4096
#: value types a record-line template holds the JSON text of
_BAKED_TYPES = {str, bool, type(None)}


def _summary_dict(summary):
    """The summary as the header holds it: each of its ``sums`` as a key
    of its own, ``<name>_sum``."""
    if summary is None:
        return None
    fields = dataclasses.asdict(summary)
    sums = fields.pop("sums")
    fields.update((f"{name}_sum", total) for name, total in sums.items())
    return fields


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


def _spell(label, names, label_value, values):
    """The part of a row's line after its time, by ``json.dumps``."""
    fields = {label: label_value, **dict(zip(names, values))}
    return ", " + json.dumps(fields)[1:] + "\n"


def _compile(label, names, label_value, values):
    """``(template, floats, baked)`` for rows shaped like this one.

    ``template % values`` prints what :func:`_spell` prints for the row:
    ``%r`` for ``int`` and ``float`` slots (``floats`` lists the float
    ones: a row holding ``inf`` or ``nan`` in one must be spelled) and,
    for ``str``/``bool``/``None`` slots (listed in ``baked``), this row's
    value — the template serves the rows that share those. ``template``
    is ``None`` when a slot holds anything else.
    """
    parts = [_literal(f", {json.dumps(label)}: {_json_value(label_value)}")]
    floats, baked = [], []
    for slot, (name, value) in enumerate(zip(names, values)):
        parts.append(_literal(f", {json.dumps(name)}: "))
        kind = type(value)
        if kind is int:
            parts.append("%r")
        elif kind is float:
            floats.append(slot)
            parts.append("%r")
        elif kind is str or kind is bool or value is None:
            baked.append(slot)
            parts.append(_literal(_json_value(value)) + "%.0s")
        else:
            return None, (), ()
    parts.append("}\n")
    return "".join(parts), tuple(floats), tuple(baked)


def _typed_templates(log):
    """``{kind: template}`` for each kind of an
    :class:`~repro.obs.tracer.EventLog` whose every column is an array
    and holds no ``inf``: all its rows have one shape, and no value
    needs a look."""
    templates = {}
    for kind, (_, *columns) in log.fields.items():
        if all(type(column) is array for column in columns):
            # a sum of floats is finite when no value in it is inf
            total = sum(sum(column) for column in columns
                        if column.typecode == "d")
            if total - total == 0.0:
                sample = tuple(column[0] for column in columns)
                templates[kind] = _compile("kind", log.columns[kind], kind,
                                           sample)[0]
    return templates


def _write_rows(out, rows, record_type, label, names_of, typed):
    """Write ``(time, label value, values)`` rows as JSON lines: the text
    up to the time, kept while the time repeats, plus the shape's
    template applied to the values (see the module docstring).
    ``names_of(label value)`` gives the keys of ``values``; a label value
    in ``typed`` has its template there."""
    head = f'{{"type": {json.dumps(record_type)}, "t": '
    # (label value, *slot types) -> (template, floats, pick, variants)
    shapes = {}
    stamp = last_time = None
    rows = iter(rows)
    while True:
        lines = []
        for time, value_of_label, values in islice(rows, _BLOCK):
            if time != last_time or type(time) is not float:
                if type(time) is float and time - time == 0.0:
                    stamp = head + repr(time)
                    # 0.0 == -0.0 and they print differently: never reused
                    last_time = time or None
                else:
                    stamp = head + _json_value(time)
                    last_time = None
            template = typed.get(value_of_label)
            if template is not None:
                lines.append(stamp + template % values)
                continue
            key = (value_of_label, *map(type, values))
            shape = shapes.get(key)
            if shape is None:
                template, floats, baked = _compile(
                    label, names_of(value_of_label), value_of_label, values)
                shape = shapes[key] = (
                    template, floats, itemgetter(*baked) if baked else None,
                    {})
            template, floats, pick, variants = shape
            for slot in floats:
                value = values[slot]
                if value - value != 0.0:  # inf or nan: not what %r prints
                    template = None
                    break
            if pick is not None and template is not None:
                chosen = pick(values)
                template = variants.get(chosen)
                if template is None and len(variants) < _BAKED:
                    template = variants[chosen] = _compile(
                        label, names_of(value_of_label), value_of_label,
                        values)[0]
            if template is None:
                lines.append(stamp + _spell(label, names_of(value_of_label),
                                            value_of_label, values))
            else:
                lines.append(stamp + template % values)
        if not lines:
            return
        out.write("".join(lines))


def _write_ticks(out, log):
    """Write a :class:`~repro.obs.probes.ProbeLog` as JSON lines, a tick
    at a time: one template holds the tick's n lines, its time formatted
    once and dropped in at :data:`_TIME`. A log with an ``inf`` or
    ``nan`` anywhere in it is written triple by triple."""
    log.settle()
    names, times = log.names, log.times
    total = sum(map(sum, (times, *log.values)))
    if not names or total - total != 0.0:
        _write_rows(out, ((time, name, (value,)) for time, name, value in log),
                    "probe", "name", lambda name: ("value",), {})
        return
    template = "".join(
        '{"type": "probe", "t": ' + _TIME
        + _literal(f', "name": {_json_value(name)}') + ', "value": %r}\n'
        for name in names)
    ticks = zip(times, zip(*log.values))
    step = max(1, _BLOCK // len(names))
    while True:
        lines = [(template % values).replace(_TIME, repr(time))
                 for time, values in islice(ticks, step)]
        if not lines:
            return
        out.write("".join(lines))


def _spell_txn(record):
    return json.dumps({"type": "txn", **record}) + "\n"


def _pick(slots):
    """``values -> tuple`` of the values at ``slots``."""
    if len(slots) == 1:
        slot, = slots
        return lambda values: (values[slot],)
    return itemgetter(*slots) if slots else lambda values: ()


def _txn_lines(log):
    """A :class:`~repro.obs.tracer.TxnLog`'s lines, in row order.

    A regular row takes the template of its shape: its ``rounds`` code and
    the values in its list columns (the two flags and ``abort_reason``),
    whose JSON text the template holds, with its array columns printed by
    ``%r``. Every template is made from one skeleton, by one ``%``, and a
    ``rounds`` table's text is made once. An odd row, a row with a
    non-finite float, a shape with a value that is not a ``str``,
    ``bool``, ``None`` or ``int`` in a list column (a float would share
    its shape with every float equal to it: ``-0.0`` with ``0.0``) and a
    shape past :data:`_TXN_SHAPES` are spelled by ``json.dumps``."""
    from repro.obs.schema import TXN_RECORD_FIELDS

    columns, odd = log.columns, log.odd
    rounds = TXN_RECORD_FIELDS.index("rounds")
    numbers, baked, checked, parts = [], [], [], ['{"type": "txn"']
    for slot, column in enumerate(columns):
        parts.append(_literal(_literal(
            f", {json.dumps(TXN_RECORD_FIELDS[slot])}: ")))
        if slot == rounds or type(column) is list:
            baked.append(slot)
            parts.append("%s")
            continue
        numbers.append(slot)
        parts.append("%%r")
        if column.typecode == "d":
            total = sum(column)
            if total - total != 0.0:   # an inf somewhere in it
                checked.append(slot)
    skeleton = "".join(parts) + "}\n"
    numbers_of = _pick(numbers)
    picked_of = key_of = _pick(baked)
    # a shape is its values while no list column holds a number: True
    # would otherwise share a shape with 1
    if any(set(map(type, columns[slot])) - _BAKED_TYPES
           for slot in baked if slot != rounds):
        key_of = lambda values: (*picked_of(values),
                                 *map(type, picked_of(values)))
    rounds_texts = [json.dumps(dict(shape)) for shape in log.shapes]
    templates = {}

    def template(values):
        texts = []
        for slot, value in zip(baked, picked_of(values)):
            kind = type(value)
            if slot == rounds:
                texts.append(rounds_texts[value])
            elif kind in _BAKED_TYPES or kind is int:
                texts.append(_json_value(value))
            else:
                return None
        return skeleton % tuple(map(_literal, texts))

    def line(values):
        if checked and any(values[slot] - values[slot] != 0.0
                           for slot in checked):
            return _spell_txn(log.record(values))
        key = key_of(values)
        try:
            return templates[key] % numbers_of(values)
        except KeyError:
            if len(templates) < _TXN_SHAPES:
                templates[key] = template(values)
                return line(values)
        except TypeError:   # an unhashable value, or no template
            pass
        return _spell_txn(log.record(values))

    lines = map(line, zip(*columns))
    if not odd:
        return lines
    return (_spell_txn(odd[row]) if row in odd else next(lines)
            for row in range(len(log)))


def _write_txns(out, log):
    """Write a :class:`~repro.obs.tracer.TxnLog` as JSON lines, a block at
    a time."""
    log.settle()
    lines = _txn_lines(log)
    while True:
        block = "".join(islice(lines, _BLOCK))
        if not block:
            return
        out.write(block)


def write_jsonl(path, trace, config=None, seed=None):
    """One JSON object per line: a header, then events, transactions, and
    probe samples in that order."""
    events = trace.events
    rows = events.flat()
    typed = _typed_templates(events)
    with open(path, "w", encoding="utf-8") as out:
        header = {"type": "header", "seed": seed,
                  "config": config.describe() if config is not None else None,
                  "summary": _summary_dict(trace.summary)}
        out.write(json.dumps(header) + "\n")
        _write_rows(out, rows, "event", "kind", events.columns.__getitem__,
                    typed)
        _write_txns(out, trace.txns)
        _write_ticks(out, trace.probes)
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
    from repro.obs.schema import PHASE_COLORS
    from repro.obs.spans import phase_view

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
    from repro.obs.schema import SPAN_ARGS

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
                     **{name: record[name] for name in SPAN_ARGS}},
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
    from repro.obs.schema import PHASES
    from repro.obs.spans import phase_view

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
    from repro.obs.schema import SPAN_ARGS

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
                         **{name: record[name] for name in SPAN_ARGS},
                         "overhead": record["overhead"]},
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
