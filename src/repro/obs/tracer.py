"""Structured tracing for the simulator stack.

The tracer is attached to the :class:`~repro.sim.engine.Simulator` as
``sim.tracer``; every instrumented call site guards with ``tracer is not
None``, so a run without tracing executes exactly the pre-instrumentation
code path (zero overhead when disabled, and — because the tracer never
draws random numbers and only ever *adds* heap entries for probes — a run
with tracing produces bit-identical :class:`RunMetrics`).

Three kinds of records are captured:

* **events** — one row ``(sim_time, kind, *values)`` per structured
  event (message sends/drops, lock grants, FL dispatches, watchdog
  repairs, transaction lifecycle, ...), kept column-wise with the field
  names once per kind; :class:`EventLog` reads them back as
  ``(sim_time, kind, fields)`` triples. See :mod:`repro.obs.schema`.
* **transactions** — per-transaction latency-round accounting: the count
  of *sequential message rounds* a transaction's busy period contributed
  (the paper's 3m vs 2m+1 arithmetic) and the account of its response
  time declared in :mod:`repro.obs.schema`: propagation, transmission,
  delivery slack (jitter / FIFO clamping) and client think time, the
  2PC-coordination, abort-resolution and live-overhead sub-accounts, and
  the residual lock wait.
* **probes** — periodic gauge samples, one ``(sim_time, v0, ..., vn)``
  tick per interval taken by :class:`~repro.obs.probes.ProbeSampler` and
  kept column-wise; :class:`~repro.obs.probes.ProbeLog` reads them back
  as ``(sim_time, series, value)`` triples.

What a trace keeps resident is its values, not an object per row. A
kind's field names are written once, in
:data:`~repro.obs.schema.EVENT_SCHEMA`; every call site in the package
passes the values in that order to :meth:`Tracer.row` — no keyword dict
is built, no name compared — and the two per-message rows (over half of
all events) are staged by the network hooks themselves. A row is staged
as one ``(time, *values)`` tuple under its kind, and every
:data:`~repro.obs.columns.STAGE` rows :meth:`EventLog.settle` moves the
staged tuples into typed columns (:mod:`repro.obs.columns`): 8 bytes a
float, an int in the narrowest of 1, 2, 4 or 8 bytes that holds its
column, and a list slot only for a field that holds something else. On
the ledger's ``traced_g2pl`` an event costs 21 B resident and a probe
tick 42 B, against 122 B and 208 B as a tuple of boxed values per row
(whose container alone was 86 B; a tuple holding a keyword dict, 271 B)
and 39 B an event with every int in 8 bytes. Keyword :meth:`Tracer.emit`
remains for kinds the schema does not declare.

A finished transaction's record goes the same way: :class:`TxnLog`
keeps it as a row of typed columns, its ``rounds`` table as a code into
the run's distinct tables, and reads the rows back as the record dicts
it replaced — 171 B a record on ``traced_g2pl``, where a dict with its
values cost 889 B. :meth:`Tracer.finish` hands the same logs to
:class:`TraceData`; nothing is copied.

Round-charging scheme (validates the paper's arithmetic exactly on the
worked-example scenario):

* ``request``  — charged when a client sends a LockRequest.
* ``grant``    — charged when the *server* ships data (s-2PL DataShip,
  g-2PL chain-head dispatch or reader graft). Grants that a forwarding
  client performs are not grants but handoffs:
* ``handoff``  — charged to the *forwarding* transaction when its release
  doubles as the successor's grant (the g-2PL merged message).
* ``release``  — charged to the releasing transaction when the release
  travels alone (s-2PL commit/abort release, g-2PL return-to-server).
* ``grant_concurrent`` — the MR1W co-ship; counted but excluded from the
  sequential total (it overlaps the read group's rounds).
* ``commit`` / ``commit_ack`` — the fault-mode ChainCommit round trip.
* ``prepare`` / ``vote`` / ``decide`` — the cross-shard 2PC phases
  (sharded runs): one sequential prepare fan-out, one sequential vote
  fan-in (the slowest participant; the others count as
  ``vote_concurrent``), one sequential decision fan-out. Fault-mode
  decision acks mirror votes as ``commit_ack`` / ``commit_ack_concurrent``.
"""

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import compress, repeat
from operator import add, attrgetter, truth

from repro.obs.columns import STAGE, extend, put
from repro.obs.probes import ProbeLog
from repro.obs.schema import (
    ACCOUNT,
    COMPONENTS,
    EVENT_SCHEMA,
    RESIDUAL,
    SUB_ACCOUNTS,
    TXN_RECORD_FIELDS,
)
from repro.obs.summary import NON_SEQUENTIAL_ROUND_KINDS, TraceSummary


#: keys :func:`repro.obs.export.write_jsonl` gives every event row itself
RESERVED_FIELDS = ("type", "t", "kind")

#: finished transactions a :class:`TxnLog` stages before it settles them
STAGE_TXNS = 64

#: what a transaction's charges add up in: its account but the residual
_SUMS = COMPONENTS + SUB_ACCOUNTS
_sums_of = attrgetter(*_SUMS)
_components_of = attrgetter(*COMPONENTS)

#: the outcome's keys, after the residual: the rest of a record's are
#: ``txn``, ``client``, ``rounds``, ``rounds_sequential`` and the account,
#: in that order (:meth:`TxnLog._row` builds them so)
_OUTCOME = TXN_RECORD_FIELDS[TXN_RECORD_FIELDS.index(RESIDUAL) + 1:]

_ROUNDS = TXN_RECORD_FIELDS.index("rounds")


class EventLog:
    """The captured events, kept column-wise, read as ``(time, kind,
    fields)`` triples.

    ``codes`` holds one entry per row, an index into ``kinds`` (an
    ``array('B')`` while there are at most 256 kinds). Per kind,
    ``fields[kind]`` holds that kind's rows in order as typed columns
    (see :mod:`repro.obs.columns`): their clock readings, then one column
    per name in ``columns[kind]`` (the schema's, then any other kind's
    first ``emit``). Every row of a kind has its kind's names:
    :class:`Tracer` refuses one that does not.

    Rows arrive as ``(time, *values)`` tuples staged per kind, their
    kinds in row order in ``order``; :meth:`settle` moves them into the
    columns :data:`~repro.obs.columns.STAGE` rows at a time, and every
    reader settles first. ``len()``, iteration and pickling read the
    rows as triples; exporters that want speed read :meth:`flat`.
    """

    def __init__(self):
        self.kinds = []            # code -> kind
        self.codes = array("B")    # one kind code per row
        self.columns = dict(EVENT_SCHEMA)  # kind -> (field name, ...)
        self.fields = {}           # kind -> [times, one column per name]
        self.order = []            # the staged rows' kinds, in row order
        self.staged = defaultdict(list)  # kind -> [(time, *values), ...]
        self._code_of = {}         # kind -> code

    def add_shape(self, time, kind, fields):
        """Record a row given as ``{field: value}`` whose names are not
        (yet) ``columns[kind]``: they become the kind's columns if it has
        none, and the row is refused otherwise."""
        names = tuple(fields)
        for name in names:
            if name in RESERVED_FIELDS:
                raise ValueError(
                    f"event {kind!r}: field {name!r} would collide with "
                    f"the exported row's own {RESERVED_FIELDS} keys")
        if self.columns.setdefault(kind, names) != names:
            raise ValueError(
                f"event {kind!r}: fields {names} differ from the kind's "
                f"columns {self.columns[kind]}")
        self.order.append(kind)
        self.staged[kind].append((time, *fields.values()))

    def _code_rows(self, kinds):
        """Append the code of each of ``kinds`` (one per row) to ``codes``."""
        code_of = self._code_of
        try:
            codes = list(map(code_of.__getitem__, kinds))
        except KeyError:
            for kind in kinds:
                if kind not in code_of:
                    code_of[kind] = len(self.kinds)
                    self.kinds.append(kind)
            if len(self.kinds) > 256 and self.codes.typecode == "B":
                self.codes = array("I", self.codes)
            codes = list(map(code_of.__getitem__, kinds))
        self.codes.fromlist(codes)

    def settle(self):
        """Move the staged rows into the columns, a kind at a time."""
        order = self.order
        if not order:
            return
        self._code_rows(order)
        for kind, rows in self.staged.items():
            if rows:
                columns = self.fields.get(kind) or [[] for _ in rows[0]]
                self.fields[kind] = [extend(column, batch) for column, batch
                                     in zip(columns, zip(*rows))]
                rows.clear()
        order.clear()

    def flat(self):
        """Every row as ``(time, kind, values)``, in order, ``values`` in
        ``columns[kind]`` order."""
        self.settle()
        kinds, codes = self.kinds, self.codes
        times, tuples = [], []
        for kind in kinds:
            columns = self.fields[kind]
            times.append(iter(columns[0]))
            tuples.append(zip(*columns[1:]) if len(columns) > 1
                          else repeat(()))
        return zip(map(next, map(times.__getitem__, codes)),
                   map(kinds.__getitem__, codes),
                   map(next, map(tuples.__getitem__, codes)))

    def __len__(self):
        return len(self.codes) + len(self.order)

    def __iter__(self):
        columns = self.columns
        for time, kind, values in self.flat():
            yield time, kind, dict(zip(columns[kind], values))

    def __getstate__(self):
        self.settle()
        return self.__dict__


class _TxnAcc:
    """Accumulating per-transaction charges; finalised into a record."""

    __slots__ = ("txn_id", "client_id", "begin", "rounds", "shard_rounds",
                 *_SUMS)

    def __init__(self, txn_id):
        self.txn_id = txn_id
        self.client_id = None
        self.begin = None
        self.rounds = {}
        self.shard_rounds = None  # {shard: {kind: count}} (sharded runs)
        for name in _SUMS:
            setattr(self, name, 0.0)

    @classmethod
    def of(cls, record):
        """The accumulator ``record`` was made from."""
        acc = cls(record["txn"])
        acc.client_id = record["client"]
        acc.rounds = dict(record["rounds"])
        if "rounds_by_shard" in record:
            acc.shard_rounds = {shard: dict(kinds) for shard, kinds
                                in record["rounds_by_shard"].items()}
        for name in _SUMS:
            setattr(acc, name, record[name])
        return acc


def _sequential(rounds):
    """The sequential rounds among ``rounds``' ``(kind, count)`` items."""
    return sum(count for kind, count in rounds
               if kind not in NON_SEQUENTIAL_ROUND_KINDS)


def _lock_wait(acc, response):
    """The residual of ``response``: time blocked on other transactions'
    locks."""
    return response - reduce(add, _components_of(acc)) - acc.overhead


def _record(acc, meta):
    """The record of ``acc``, then ``meta``'s keys (the outcome, whose
    ``response`` the ``lock_wait`` residual is taken from)."""
    record = {
        "txn": acc.txn_id,
        "client": acc.client_id,
        "rounds": dict(acc.rounds),
        "rounds_sequential": _sequential(acc.rounds.items()),
    }
    record.update(zip(_SUMS, _sums_of(acc)))
    record[RESIDUAL] = _lock_wait(acc, meta["response"])
    if acc.shard_rounds:
        record["rounds_by_shard"] = {
            shard: dict(kinds) for shard, kinds in acc.shard_rounds.items()}
    record.update(meta)
    return record


class TxnLog:
    """The finished transactions' records, kept column-wise, read as the
    list of record dicts it replaces.

    A record whose keys are :data:`~repro.obs.schema.TXN_RECORD_FIELDS`,
    in that order, is a row of ``columns``: one typed column per key (see
    :mod:`repro.obs.columns`), the ``rounds`` one holding a code into
    ``shapes``, the distinct ``rounds`` tables as ``((kind, count), ...)``
    in their own key order (4,048 records on the ledger's ``traced_g2pl``
    have 323; a table a late charge replaced stays). A record with keys
    of its own (a sharded one carries ``rounds_by_shard``, an unfinished
    one from :meth:`Tracer.close` ``unfinished``) is kept whole under its
    row index in ``odd``.

    A finished transaction's ``(accumulator, meta)`` pair is staged until
    :data:`STAGE_TXNS` more have finished, and a finished one is found by
    its txn id (``_rows_by_id``: ``row + 1`` at that index while the ids
    are small ints) for as long as the log lives. A late charge to a
    staged row adds to its accumulator; one to a settled row reopens the
    row in ``reopened``, and the next :meth:`settle` writes it back. Every
    reader settles first. ``len()``, iteration, indexing, ``==`` and
    pickling behave as the list of dicts did; :meth:`tally` and
    :func:`repro.obs.export.write_jsonl` read the columns.
    """

    def __init__(self):
        self.columns = [[] for _ in TXN_RECORD_FIELDS]
        self.shapes = []           # code -> ((kind, count), ...)
        self.odd = {}              # row index -> record dict
        self.settled = 0           # rows in columns and odd
        self.staged = []           # [(acc, meta), ...] after the settled
        self.reopened = {}         # settled row -> (acc, meta)
        self._code_of = {}         # shape -> code
        self._sequential = []      # code -> its sequential rounds
        self._rows_by_id = array("i")  # txn id -> row + 1 (or a dict)

    # -- writing ---------------------------------------------------------

    def add(self, acc, meta, finished=True):
        """Stage the record of ``acc`` with ``meta``. A ``finished`` one
        replaces the row its txn id already has, as a dict key's value
        would."""
        row = end = self.settled + len(self.staged)
        if finished:
            row = self._index(acc.txn_id, end)
        if row == end:
            self.staged.append((acc, meta))
            if len(self.staged) >= STAGE_TXNS:
                self.settle()
        elif row >= self.settled:
            self.staged[row - self.settled] = (acc, meta)
        else:
            self.reopened[row] = (acc, meta)

    def reopen(self, txn_id):
        """The accumulator a late charge to finished ``txn_id`` adds to,
        or ``None`` when no row is that transaction's."""
        rows = self._rows_by_id
        if type(rows) is dict:
            row = rows.get(txn_id)
            if row is None:
                return None
        elif type(txn_id) is int and 0 <= txn_id < len(rows):
            row = rows[txn_id] - 1
            if row < 0:
                return None
        else:
            return None
        if row >= self.settled:
            return self.staged[row - self.settled][0]
        pair = self.reopened.get(row)
        if pair is None:
            record = self._read(row)
            acc = _TxnAcc.of(record)
            own = _record(acc, {"response": 0.0})
            pair = self.reopened[row] = (acc, {
                key: value for key, value in record.items()
                if key not in own or key == "response"})
        return pair[0]

    def settle(self):
        """Write the reopened rows back, then move the staged ones into
        the columns."""
        for row, (acc, meta) in self.reopened.items():
            self._write(row, acc, meta)
        self.reopened.clear()
        staged = self.staged
        if not staged:
            return
        rows = []
        for row, (acc, meta) in enumerate(staged, self.settled):
            values = self._row(acc, meta)
            if values is None:
                self.odd[row] = _record(acc, meta)
            else:
                rows.append(values)
        if rows:
            self.columns = [extend(column, batch) for column, batch
                            in zip(self.columns, zip(*rows))]
        self.settled += len(staged)
        staged.clear()

    def _row(self, acc, meta):
        """The values of the record of ``acc`` with ``meta``, in
        :data:`~repro.obs.schema.TXN_RECORD_FIELDS` order with its
        ``rounds`` as a shape code, made without the dict; ``None`` when
        the record has keys of its own."""
        if acc.shard_rounds or tuple(meta) != _OUTCOME:
            return None
        shape = tuple(acc.rounds.items())
        code = self._code_of.get(shape)
        if code is None:
            code = self._code_of[shape] = len(self.shapes)
            self.shapes.append(shape)
            self._sequential.append(_sequential(shape))
        return (acc.txn_id, acc.client_id, code, self._sequential[code],
                *_sums_of(acc), _lock_wait(acc, meta["response"]),
                *meta.values())

    def _write(self, row, acc, meta):
        """Put the record of ``acc`` with ``meta`` at settled ``row``: in
        place, or in ``odd`` when the row is odd or the record has keys of
        its own."""
        odd = row in self.odd
        values = None if odd else self._row(acc, meta)
        if values is not None:
            at = self._position(row)
            self.columns = [put(column, at, value) for column, value
                            in zip(self.columns, values)]
            return
        if not odd:
            at = self._position(row)
            for column in self.columns:
                del column[at]
        self.odd[row] = _record(acc, meta)

    def _index(self, txn_id, row):
        """``txn_id``'s row: the one it has, or ``row``, now its."""
        rows = self._rows_by_id
        if type(rows) is array:
            if type(txn_id) is int and 0 <= txn_id < len(rows) + STAGE:
                if txn_id >= len(rows):
                    rows.frombytes(bytes(rows.itemsize * STAGE))
                if rows[txn_id]:
                    return rows[txn_id] - 1
                rows[txn_id] = row + 1
                return row
            # an id far from the others: look them all up by hash
            rows = self._rows_by_id = {
                txn: at - 1 for txn, at in enumerate(rows) if at}
        return rows.setdefault(txn_id, row)

    # -- reading ---------------------------------------------------------

    def record(self, values):
        """A regular row's record from its column ``values``."""
        record = dict(zip(TXN_RECORD_FIELDS, values))
        record["rounds"] = dict(self.shapes[values[_ROUNDS]])
        return record

    def _position(self, row):
        """Settled ``row``'s place in the columns."""
        return row - sum(1 for other in self.odd if other < row)

    def _read(self, row):
        if row in self.odd:
            return dict(self.odd[row])
        at = self._position(row)
        return self.record([column[at] for column in self.columns])

    def tally(self, summary):
        """Add the measured records to ``summary``, each sum in row order
        with the additions the record-by-record loop made."""
        self.settle()
        if any(record["measured"] for record in self.odd.values()):
            for record in self:
                _tally(summary, record)
            return
        column = dict(zip(TXN_RECORD_FIELDS, self.columns))
        measured = list(map(truth, column["measured"]))
        won = [flag and bool(committed) for flag, committed
               in zip(measured, column["committed"])]
        committed = won.count(True)
        summary.committed += committed
        summary.aborted += measured.count(True) - committed
        summary.rounds_total += sum(compress(column["rounds_sequential"],
                                             won))
        by_kind = summary.rounds_by_kind
        for code, times in Counter(compress(column["rounds"], won)).items():
            for kind, count in self.shapes[code]:
                by_kind[kind] = by_kind.get(kind, 0) + count * times
        summary.response_sum = reduce(add, compress(column["response"], won),
                                      summary.response_sum)
        sums = summary.sums
        for name in ACCOUNT:
            sums[name] = reduce(add, compress(column[name], won), sums[name])

    def __len__(self):
        return self.settled + len(self.staged)

    def __iter__(self):
        self.settle()
        rows = map(self.record, zip(*self.columns))
        odd = self.odd
        if not odd:
            return rows
        return (dict(odd[index]) if index in odd else next(rows)
                for index in range(self.settled))

    def __getitem__(self, index):
        picked = range(len(self))[index]
        self.settle()
        if isinstance(index, slice):
            return [self._read(row) for row in picked]
        return self._read(picked)

    def __getstate__(self):
        self.settle()
        return self.__dict__


def _tally(summary, record):
    """Add one record to ``summary``: the loop :meth:`TxnLog.tally` runs
    when a measured record has keys of its own."""
    if not record["measured"]:
        return
    if not record["committed"]:
        summary.aborted += 1
        return
    summary.committed += 1
    summary.rounds_total += record["rounds_sequential"]
    for kind, count in record["rounds"].items():
        summary.rounds_by_kind[kind] = (
            summary.rounds_by_kind.get(kind, 0) + count)
    for shard, kinds in record.get("rounds_by_shard", {}).items():
        cell = summary.rounds_by_shard.setdefault(shard, {})
        for kind, count in kinds.items():
            cell[kind] = cell.get(kind, 0) + count
    summary.response_sum += record["response"]
    sums = summary.sums
    for name in ACCOUNT:
        sums[name] += record[name]


@dataclass
class TraceData:
    """Everything one traced run captured (plain data, picklable)."""

    events: EventLog  # iterates as (time, kind, {field: value})
    txns: TxnLog      # reads as [per-transaction record dict, ...]
    probes: ProbeLog  # iterates as (time, series_name, value)
    summary: TraceSummary


class Tracer:
    """Collects structured events and per-transaction accounting."""

    def __init__(self, sim):
        self.sim = sim
        self.network = None
        self.events = EventLog()
        self._order = self.events.order
        self._staged = self.events.staged
        self._columns = self.events.columns
        self.probes = ProbeLog()   # ProbeSampler adds a row per tick
        self._live = {}   # txn_id -> _TxnAcc
        self.txns = TxnLog()   # txn_finished adds a row per transaction
        self._unfinished = []  # rows close() finalised, never finished
        self._msgs_seen = 0  # each stamped with its number at first sight
        # network gauges / counters
        self.in_flight_total = 0
        self.messages_sent = 0
        self.msgs_by_kind = {}
        self.drops_by_cause = {}
        self.duplicates_injected = 0
        self.retransmissions = 0
        self.duplicates_suppressed = 0

    def bind_network(self, network):
        """Attach the network whose topology/bandwidth price the wires."""
        self.network = network

    # -- generic events ------------------------------------------------------

    def row(self, kind, *values):
        """One event of a declared kind, its ``values`` in the order of
        ``EVENT_SCHEMA[kind]`` (held to it by ``tests/test_structure.py``);
        a value count that does not match the kind's columns is refused."""
        names = self._columns.get(kind)
        if names is None or len(values) != len(names):
            raise ValueError(f"event {kind!r}: {len(values)} values for "
                             f"the kind's columns {names}")
        self._order.append(kind)
        self._staged[kind].append((self.sim.now, *values))
        if len(self._order) >= STAGE:
            self.events.settle()

    def emit(self, kind, /, **fields):
        """One event given by name; its names must be its kind's columns
        (the first ``emit`` of an undeclared kind sets them)."""
        if self._columns.get(kind) != tuple(fields):
            self.events.add_shape(self.sim.now, kind, fields)
            return
        self._order.append(kind)
        self._staged[kind].append((self.sim.now, *fields.values()))
        if len(self._order) >= STAGE:
            self.events.settle()

    # -- network -------------------------------------------------------------

    def _msg_id(self, envelope):
        """The envelope's run-local number, stamped on it at first sight
        (its send; for a tracer attached mid-run, a delivery or a drop).
        The two per-message hooks below do this inline, a call cheaper."""
        mid = envelope.envelope_id
        if mid is None:
            mid = envelope.envelope_id = self._msgs_seen = self._msgs_seen + 1
        return mid

    def net_send(self, envelope, kind, copies):
        """One send; ``copies`` is how many deliveries of it the transport
        put on the heap (what :meth:`net_delivered` will count down)."""
        self.messages_sent += 1
        by_kind = self.msgs_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        self.in_flight_total += copies
        mid = envelope.envelope_id
        if mid is None:
            mid = envelope.envelope_id = self._msgs_seen = self._msgs_seen + 1
        self._order.append("msg.send")
        self._staged["msg.send"].append((
            envelope.send_time, mid, envelope.src, envelope.dst, kind,
            envelope.size, envelope.deliver_time))
        if len(self._order) >= STAGE:
            self.events.settle()

    def net_delivered(self, envelope):
        # A tracer attached mid-run also sees sends it never counted land;
        # the guard keeps the gauge non-negative and it still reads 0 once
        # every counted copy has landed.
        if self.in_flight_total > 0:
            self.in_flight_total -= 1
        mid = envelope.envelope_id
        if mid is None:
            mid = envelope.envelope_id = self._msgs_seen = self._msgs_seen + 1
        self._order.append("msg.deliver")
        self._staged["msg.deliver"].append((self.sim.now, mid, envelope.src,
                                            envelope.dst))
        if len(self._order) >= STAGE:
            self.events.settle()

    def net_dropped(self, envelope, cause):
        self.drops_by_cause[cause] = self.drops_by_cause.get(cause, 0) + 1
        self.row("msg.drop", self._msg_id(envelope), envelope.src,
                 envelope.dst, cause)

    def net_duplicated(self, envelope):
        self.duplicates_injected += 1
        self.row("msg.dup", self._msg_id(envelope), envelope.src, envelope.dst)

    def net_retransmit(self, site_id, dst):
        self.retransmissions += 1
        self.row("msg.retransmit", site_id, dst)

    def net_dup_suppressed(self, site_id, src):
        self.duplicates_suppressed += 1
        self.row("msg.dup_suppressed", site_id, src)

    # -- per-transaction accounting ------------------------------------------

    def _acc(self, txn_id):
        acc = self._live.get(txn_id)
        if acc is None:
            # Late charge: a committed g-2PL transaction can still hand
            # an item off after its coroutine returned (MR1W gating).
            acc = self.txns.reopen(txn_id)
            if acc is None:
                acc = self._live[txn_id] = _TxnAcc(txn_id)
        return acc

    def round_charge(self, txn_id, kind, shard=None):
        """Count one message round of ``kind`` against ``txn_id``.

        ``shard`` attributes the round to a home server (sharded runs);
        unsharded charge sites pass nothing and the per-shard table stays
        empty, keeping their traces byte-identical to pre-sharding runs.
        """
        acc = self._acc(txn_id)
        rounds = acc.rounds
        rounds[kind] = rounds.get(kind, 0) + 1
        if shard is not None:
            table = acc.shard_rounds
            if table is None:
                table = acc.shard_rounds = {}
            per_shard = table.setdefault(shard, {})
            per_shard[kind] = per_shard.get(kind, 0) + 1

    def wire_charge(self, txn_id, envelope, phase=None):
        """Charge an *awaited* message's wire time to the transaction that
        blocks on its arrival. ``envelope`` may be None (under fault
        injection the reliable link owns the wire) — then only the round
        counts, the wire components are unknowable.

        ``phase`` sub-attributes the charged wire time to a named phase
        without changing the component totals: ``"commit"`` marks 2PC /
        chain-commit coordination flights, ``"abort"`` marks deadlock and
        abort-resolution flights (the victim's AbortNotice). Untagged
        charges land in the generic network phase.
        """
        if envelope is None:
            return
        acc = self._acc(txn_id)
        network = self.network
        if network is None:
            propagation = transmission = 0.0
        else:
            # what the transport priced this link at when it sent
            propagation = network.link_latency[envelope.src, envelope.dst]
            bandwidth = network.bandwidth
            transmission = envelope.size / bandwidth if bandwidth else 0.0
        slack = (envelope.deliver_time - envelope.send_time
                 - propagation - transmission)
        acc.propagation += propagation
        acc.transmission += transmission
        if slack <= 0.0:
            slack = 0.0
        acc.slack += slack
        if phase is not None:
            wire = propagation + transmission + slack
            if phase == "commit":
                acc.commit_coord += wire
            elif phase == "abort":
                acc.abort_resolution += wire

    def overhead_charge(self, txn_id, duration):
        """Charge live-only process overhead: the receiver-side excess of a
        frame's actual arrival over its shaped (sim-predicted) delivery
        time — codec, event-loop scheduling, and kernel socket time. Never
        called in simulation, so sim records keep ``overhead == 0.0``."""
        self._acc(txn_id).overhead += duration

    def think_charge(self, txn_id, duration):
        self._acc(txn_id).client_think += duration

    def txn_begin(self, txn):
        acc = self._acc(txn.txn_id)
        acc.client_id = txn.client_id
        acc.begin = self.sim.now
        self.row("txn.begin", txn.txn_id, txn.client_id)

    def txn_finished(self, outcome, measured=True):
        """Finalise a transaction from its driver-visible outcome."""
        acc = self._live.pop(outcome.txn_id, None)
        if acc is None:
            acc = _TxnAcc(outcome.txn_id)
        acc.client_id = outcome.client_id
        meta = {
            "committed": outcome.committed,
            "measured": measured,
            "start": outcome.start_time,
            "end": outcome.end_time,
            "response": outcome.response_time,
            "n_ops": outcome.n_ops,
            "abort_reason": outcome.abort_reason,
        }
        self.txns.add(acc, meta)
        self.row("txn.end", outcome.txn_id, outcome.client_id,
                 outcome.committed, outcome.response_time)

    def partial_records(self):
        """Accumulators of transactions this tracer never saw finish.

        In a live run every endpoint process has its own tracer, and a
        transaction's rounds are charged wherever the charging code runs:
        the server charges grants, a forwarding g-2PL client charges the
        successor's handoff wire time. Those foreign charges accumulate in
        ``_live`` and are never finalised locally — the harness merges them
        into the owning endpoint's finished record. Keys mirror a record's
        (see :data:`~repro.obs.schema.TXN_RECORD_FIELDS`) minus the
        residual and the outcome metadata.
        """
        return [
            {"txn": acc.txn_id, "client": acc.client_id,
             "rounds": dict(acc.rounds), **dict(zip(_SUMS, _sums_of(acc)))}
            for acc in self._live.values()
        ]

    def close(self):
        """Finalise transactions still in flight when the run ends.

        Transactions begun via :meth:`txn_begin` but never handed to
        :meth:`txn_finished` (the run closed mid-transaction) would
        otherwise linger in ``_live`` forever: exporters silently dropped
        them and :meth:`partial_records` reported them as if they were
        foreign charges. ``close()`` converts each into a full-shaped
        record flagged ``unfinished`` (``measured=False``, so summaries
        and fingerprints of finished work are untouched), empties
        ``_live`` and returns every record it has made. Call it once,
        after the run loop exits and before :meth:`finish`; live-mode
        endpoints must *not* call it — their residual accumulators are
        genuine partial records that the harness merges across processes.
        """
        now = self.sim.now
        for acc in self._live.values():
            begin = acc.begin
            meta = {
                "committed": False,
                "measured": False,
                "unfinished": True,
                "start": begin,
                "end": now,
                "response": now - begin if begin is not None else 0.0,
                "n_ops": None,
                "abort_reason": "unfinished",
            }
            self._unfinished.append(len(self.txns))
            self.txns.add(acc, meta, finished=False)
        self._live.clear()
        return [self.txns[row] for row in self._unfinished]

    # -- finalisation --------------------------------------------------------

    def finish(self, processed_events=0, peak_heap_depth=0):
        """Freeze everything captured into a picklable :class:`TraceData`;
        nothing is copied."""
        self.events.settle()
        self.probes.settle()
        summary = TraceSummary(
            messages_sent=self.messages_sent,
            msgs_by_kind=dict(self.msgs_by_kind),
            drops_by_cause=dict(self.drops_by_cause),
            duplicates_injected=self.duplicates_injected,
            retransmissions=self.retransmissions,
            duplicates_suppressed=self.duplicates_suppressed,
            trace_events=len(self.events),
            processed_events=processed_events,
            peak_heap_depth=peak_heap_depth,
            probe_series=self.probes.series(),
        )
        self.txns.tally(summary)
        return TraceData(events=self.events, txns=self.txns,
                         probes=self.probes, summary=summary)
