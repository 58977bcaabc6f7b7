"""The columnar event and probe logs and the compiled JSONL writer, each
against the thing it replaced: the ``(time, kind, fields)`` triples, the
``(time, series, value)`` triples, and the per-row ``json.dumps`` writer
kept in :mod:`tests.helpers`."""

import dataclasses
import json
import math
import pickle
import sys
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.obs.columns import STAGE
from repro.obs.export import (
    _BAKED,
    write_jsonl,
    write_phases_csv,
    write_probes_csv,
)
from repro.obs.probes import ProbeLog
from repro.obs.schema import EVENT_SCHEMA
from repro.obs.spans import PHASES, phase_view, sum_violation
from repro.obs.tracer import RESERVED_FIELDS, Tracer
from repro.perf.goldens import golden_config

from helpers import TRACED_GOLDEN_CELLS, write_jsonl_per_row


def both_writers(directory, trace, config=None, seed=None):
    """(compiled writer's bytes, oracle's bytes) for one trace."""
    directory = Path(directory)
    new = write_jsonl(directory / "new.jsonl", trace, config, seed)
    old = write_jsonl_per_row(directory / "old.jsonl", trace, config, seed)
    return new.read_bytes(), old.read_bytes()


class _Clock:
    """Stands in for the simulator: the tracer only reads ``now``."""

    now = 0.0


def traced(events, series=(), ticks=()):
    """A finished trace of hand-made ``(time, kind, fields)`` events and
    ``(time, v0, ..., vn)`` probe ticks of ``series``."""
    clock = _Clock()
    tracer = Tracer(clock)
    for time, kind, fields in events:
        clock.now = time
        tracer.emit(kind, **fields)
    tracer.probes.declare(series)
    for tick in ticks:
        tracer.probes.tick(tick)
    return tracer.finish()


# -- the writer ---------------------------------------------------------------

class TestWriterMatchesOracle:
    @pytest.mark.parametrize("name", TRACED_GOLDEN_CELLS)
    def test_traced_golden_cells_byte_identical(self, name, tmp_path):
        config, seed = golden_config(name)
        result = run_simulation(config, seed=seed)
        new, old = both_writers(tmp_path, result.trace, config, seed)
        assert new == old
        assert new.count(b"\n") == 1 + len(result.trace.events) + len(
            result.trace.txns) + len(result.trace.probes)

    def test_faulted_run_byte_identical(self, tmp_path):
        config = SimulationConfig(
            protocol="g2pl", n_clients=6, n_items=10,
            total_transactions=150, warmup_transactions=10,
            record_history=False, trace=True, probe_interval=200.0,
            faults="loss=0.05,dup=0.03,jitter=25,crash=2@6000:12000")
        result = run_simulation(config)
        summary = result.trace.summary
        assert summary.drops_by_cause and summary.duplicates_injected
        assert summary.retransmissions and summary.duplicates_suppressed
        new, old = both_writers(tmp_path, result.trace, config, result.seed)
        assert new == old

    def test_names_other_than_the_kinds_columns_are_refused(self):
        tracer = Tracer(_Clock())
        tracer.emit("k", a=1, b=2)
        for names in ({"b": 3}, {"b": 4, "a": 5}, {}):
            with pytest.raises(ValueError, match="'k'"):
                tracer.emit("k", **names)
        with pytest.raises(ValueError, match="'fl.repair'"):
            tracer.emit("fl.repair", item=1)   # a declared kind's names
        tracer.emit("k", a=6, b=7)
        assert list(tracer.finish().events) == [
            (0.0, "k", {"a": 1, "b": 2}), (0.0, "k", {"a": 6, "b": 7})]

    def test_a_row_of_the_wrong_width_is_refused(self):
        tracer = Tracer(_Clock())
        for kind, values in (("txn.begin", (1,)), ("txn.begin", (1, 2, 3)),
                             ("not.declared", ())):
            with pytest.raises(ValueError, match=repr(kind)):
                tracer.row(kind, *values)
        tracer.row("txn.begin", 1, 2)
        assert list(tracer.finish().events) == [
            (0.0, "txn.begin", {"txn": 1, "client": 2})]

    def test_non_finite_floats_print_as_json_prints_them(self, tmp_path):
        trace = traced(
            [(1.0, "k", {"x": math.inf, "y": 2.5}),
             (2.0, "k", {"x": 1.5, "y": -math.inf}),
             (math.inf, "k", {"x": 1.5, "y": math.nan}),
             (3.0, "k", {"x": -0.0, "y": 2 ** 70})],
            series=["gauge"], ticks=[(1.0, math.nan), (2.0, 3.0)])
        new, old = both_writers(tmp_path, trace)
        assert new == old
        body = new.split(b"\n", 1)[1]
        assert b"Infinity" in body and b"NaN" in body
        assert b"inf" not in body and b"nan" not in body

    def test_reserved_field_names_are_refused_at_the_source(self):
        # the exported row's own keys; a field of the same name used to
        # replace them silently (msg.send lost its kind that way)
        for name in RESERVED_FIELDS:
            tracer = Tracer(_Clock())
            with pytest.raises(ValueError, match="collide"):
                tracer.emit("some.kind", **{name: 1})
            assert len(tracer.events) == 0


hostile_text = st.text(
    alphabet=st.sampled_from(
        list("ab%rsd\"\\/\n\t{}:, ") + ["é", "☃", "\x00", "\U0001f600"]),
    max_size=6)
scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e22, 1e-7, float(2 ** 53) + 2.0]),
    hostile_text)
values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3),
                      max_leaves=6)
field_names = st.one_of(
    st.sampled_from(["a", "b", "txn", "item", "pct%", "%s", "%(x)r", 'q"',
                     "back\\slash", "é", ""]),
    hostile_text).filter(lambda name: name not in RESERVED_FIELDS)
# few kinds, so they repeat; none the schema declares, whose names are set
kinds = st.one_of(st.sampled_from(["k", "100%", 'say "hi"']),
                  hostile_text).filter(lambda kind: kind not in EVENT_SCHEMA)
times = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.integers(min_value=0, max_value=2 ** 60))


@st.composite
def events_strategy(draw):
    """Up to 12 ``(time, kind, fields)`` rows, every row of a kind with
    the one key set the draw gives that kind."""
    names_of = draw(st.dictionaries(
        kinds, st.lists(field_names, max_size=4, unique=True),
        min_size=1, max_size=3))
    row = st.sampled_from(sorted(names_of)).flatmap(
        lambda kind: st.tuples(times, st.just(kind), st.tuples(
            *[values] * len(names_of[kind])).map(
                lambda drawn: dict(zip(names_of[kind], drawn)))))
    return draw(st.lists(row, max_size=12))


@settings(max_examples=200, deadline=None)
@given(events=events_strategy())
def test_synthetic_hostile_trace_matches_oracle_and_the_triples(events):
    trace = traced(events)
    with tempfile.TemporaryDirectory() as directory:
        new, old = both_writers(directory, trace)
    assert new == old
    for line in new.splitlines():
        json.loads(line)
    # repr compares NaNs by spelling
    log = trace.events
    assert len(log) == len(events)
    assert repr(list(log)) == repr(events)
    assert repr(list(pickle.loads(pickle.dumps(log)))) == repr(events)


# -- positional rows: shared clock readings, baked slots ----------------------

class TestPositionalRowsMatchOracle:
    """``Tracer.row`` rows through the writer's three economies — a clock
    reading printed once per run of rows, ``str``/``bool``/``None`` values
    baked into template variants, everything else spelled — against the
    per-row oracle."""

    @staticmethod
    def rows(*rows):
        clock = _Clock()
        tracer = Tracer(clock)
        for time, kind, *values in rows:
            clock.now = time
            tracer.row(kind, *values)
        return tracer.finish()

    def test_hostile_text_in_a_baked_slot(self, tmp_path):
        texts = ["100%", "%s %d %(x)r %%", 'say "hi"', "back\\slash", "é☃",
                 "\x00\n\t", "\U0001f600", "", "plain"]
        trace = self.rows(*[(float(index // 2), "txn.abort", index, text)
                            for index, text in enumerate(texts * 2)])
        new, old = both_writers(tmp_path, trace)
        assert new == old

    def test_true_and_one_in_the_same_slot_are_two_shapes(self, tmp_path):
        trace = self.rows((1.0, "txn.end", 1, 2, True, 1.5),
                          (1.0, "txn.end", 1, 2, 1, 1.5),
                          (1.0, "txn.end", 1, 2, False, 1.5),
                          (1.0, "txn.end", 1, 2, 0, 1.5),
                          (1.0, "txn.end", 1, 2, None, 1.5),
                          (1.0, "txn.end", 1, 2, 1.0, 1.5),
                          (1.0, "txn.end", True, 2, True, 1.5))
        new, old = both_writers(tmp_path, trace)
        assert new == old
        committed = [json.loads(line)["committed"]
                     for line in new.splitlines()[1:]]
        assert [repr(value) for value in committed] == [
            "True", "1", "False", "0", "None", "1.0", "True"]

    def test_an_unhashable_value_is_spelled(self, tmp_path):
        trace = self.rows((1.0, "fl.repair", 3, "route-around", [2, [5]]),
                          (1.0, "fl.repair", 3, "route-around", {"a": None}),
                          (2.0, "fl.repair", 3, "route-around", 2),
                          (2.0, "fl.repair", 3, ("a", 1), 2))
        new, old = both_writers(tmp_path, trace)
        assert new == old

    def test_a_slot_with_too_many_strings_stops_baking(self, tmp_path):
        trace = self.rows(*[(1.0, "txn.abort", index, f"reason-{index % 90}")
                            for index in range(4 * _BAKED)])
        new, old = both_writers(tmp_path, trace)
        assert new == old

    def test_equal_clock_readings_that_print_differently(self, tmp_path):
        times = [0.0, -0.0, 0.0, 0, 5.0, 5, 5.0, 5.0, True, 1.0, 1, 1.0,
                 math.inf, math.inf, math.nan, math.nan, 2 ** 53, 2.0 ** 53]
        trace = self.rows(*[(time, "fl.home", index)
                            for index, time in enumerate(times)])
        new, old = both_writers(tmp_path, trace)
        assert new == old

    def test_non_finite_float_beside_a_baked_slot(self, tmp_path):
        trace = self.rows((1.0, "txn.end", 1, 2, True, math.inf),
                          (1.0, "txn.end", 1, 2, True, 2.5),
                          (1.0, "txn.end", 1, 2, True, math.nan),
                          (1.0, "msg.send", 1, 0, 1, "GShip", -0.0, -math.inf))
        new, old = both_writers(tmp_path, trace)
        assert new == old


row_times = st.sampled_from([0.0, -0.0, 1.5, 1.5, 2, 2.0, 1e22, math.inf])
declared_rows = st.sampled_from(sorted(EVENT_SCHEMA)).flatmap(
    lambda kind: st.tuples(
        row_times, st.just(kind),
        *[values] * len(EVENT_SCHEMA[kind])))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(rows=st.lists(declared_rows, max_size=12))
def test_synthetic_positional_rows_match_oracle_and_the_triples(rows):
    trace = TestPositionalRowsMatchOracle.rows(*rows)
    with tempfile.TemporaryDirectory() as directory:
        new, old = both_writers(directory, trace)
    assert new == old
    triples = [(time, kind, dict(zip(EVENT_SCHEMA[kind], fields)))
               for time, kind, *fields in rows]
    assert repr(list(trace.events)) == repr(triples)


# -- the columnar probe log ---------------------------------------------------

gauge_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 40).map(float),
    st.sampled_from([-0.0, 0.0, 0.1, 1e22, math.inf, -math.inf, math.nan]))
series_names = st.lists(
    st.one_of(st.sampled_from(["heap", "50%", 'q"', "{0}"]), hostile_text),
    max_size=4, unique=True)


@st.composite
def probe_scripts(draw):
    """``(names, ticks)``: the series, and up to 10 tick rows of them."""
    names = tuple(draw(series_names))
    tick = st.tuples(st.floats(allow_nan=True, allow_infinity=True),
                     *[gauge_values] * len(names))
    return names, draw(st.lists(tick, max_size=10))


def series_by_one_loop(triples):
    """``TraceSummary.probe_series`` as ``Tracer.finish`` computed it
    when the probes were a list of triples."""
    series = {}
    for _, name, value in triples:
        cell = series.get(name)
        if cell is None:
            cell = series[name] = {"n": 0, "sum": 0.0,
                                   "max": float("-inf")}
        cell["n"] += 1
        cell["sum"] += value
        if value > cell["max"]:
            cell["max"] = value
    return series


@settings(max_examples=200, deadline=None, derandomize=True)
@given(script=probe_scripts())
def test_probe_log_reads_exports_and_sums_as_the_list_of_triples(script):
    names, ticks = script
    tracer = Tracer(_Clock())
    log, plain = tracer.probes, []
    log.declare(names)
    for tick in ticks:
        log.tick(tick)
        plain.extend((tick[0], name, value)
                     for name, value in zip(names, tick[1:]))
    # repr compares NaNs by spelling and tells -0.0 from 0.0
    assert type(log) is ProbeLog and len(log) == len(plain)
    assert repr(list(log)) == repr(plain)
    copy = pickle.loads(pickle.dumps(log))
    assert repr(list(copy)) == repr(plain) and copy.names == names

    trace = tracer.finish()
    assert trace.probes is log
    assert repr(trace.summary.probe_series) == repr(series_by_one_loop(plain))
    with tempfile.TemporaryDirectory() as directory:
        listed = dataclasses.replace(trace, probes=plain)
        new = write_jsonl(Path(directory) / "new.jsonl", trace)
        old = write_jsonl_per_row(Path(directory) / "old.jsonl", listed)
        assert new.read_bytes() == old.read_bytes()
        csv = write_probes_csv(Path(directory) / "probes.csv", trace)
        assert csv.read_text(encoding="utf-8") == "time,series,value\n" + (
            "".join(f"{time!r},{name},{value!r}\n"
                    for time, name, value in plain))


def test_probe_log_refuses_a_repeated_name_and_a_late_declaration():
    log = ProbeLog()
    with pytest.raises(ValueError, match="twice"):
        log.declare(["a", "b", "a"])
    log.declare(["a"])
    log.declare(["a", "b"])   # no tick taken yet
    log.tick((1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="already taken"):
        log.declare(["a", "b"])


# -- typed columns: a value that does not fit keeps its type ------------------

#: rows enough that the first batch settles into an array before the
#: misfit arrives in the next one
SETTLED = STAGE + STAGE // 2

#: kind -> values its one column ("item") receives, row by row
MISFITS = {
    "bool_in_an_int_column": [*range(SETTLED), True, 7, False, 0],
    "none_after_ints": [*range(SETTLED), None, 3],
    "int_beyond_64_bits": [*range(SETTLED), 2 ** 63, -2 ** 63 - 1, 5],
    "signed_zero_inf_and_nan_in_a_float_column": (
        [-0.0, math.inf, *map(float, range(SETTLED)), -math.inf, 0.0,
         math.nan, 2.5]),
    "str_field": [*range(SETTLED), "x", 4],
    "ints_then_floats": [*range(SETTLED), 1.0, 2],
}


def assert_reads_as(log, triples):
    """``log`` counts, iterates and pickles as ``triples`` (``repr`` tells
    ``True`` from ``1``, ``1.0`` from ``1`` and ``-0.0`` from ``0.0``)."""
    assert len(log) == len(triples)
    assert repr(list(log)) == repr(triples)
    assert repr(list(pickle.loads(pickle.dumps(log)))) == repr(triples)


@pytest.mark.parametrize("case", sorted(MISFITS))
def test_a_misfit_turns_its_column_into_a_list_and_keeps_every_value(
        case, tmp_path):
    values = MISFITS[case]
    clock, triples = _Clock(), []
    tracer = Tracer(clock)
    for index, value in enumerate(values):
        clock.now = index / 4
        tracer.row("fl.home", value)
        triples.append((index / 4, "fl.home", {"item": value}))
    trace = tracer.finish()
    (times, column), = [trace.events.fields["fl.home"]]
    assert type(times) is array and type(column) is list
    assert all(type(mine) is type(theirs)
               for mine, theirs in zip(column, values))
    assert_reads_as(trace.events, triples)
    new, old = both_writers(tmp_path, trace)
    assert new == old


def test_a_column_stays_an_array_while_every_value_fits():
    """An int column is as narrow as its values so far: its first batch
    picks the narrowest signed typecode that holds it, and a later batch
    that does not fit copies it into a wider one."""
    clock = _Clock()
    tracer = Tracer(clock)
    first = None
    for index in range(SETTLED):
        clock.now = float(index)
        tracer.row("fl.handoff", index // 16, 2 ** 63 - 1, -2 ** 63)
        tracer.row("txn.end", index, 1, True, index * 0.5)
        if index == STAGE // 2:   # one batch settled: items 0 .. 127
            first = [column.typecode
                     for column in tracer.events.fields["fl.handoff"]]
    fields = tracer.finish().events.fields
    assert first == ["d", "b", "q", "q"]
    assert [column.typecode for column in fields["fl.handoff"]] == [
        "d", "h", "q", "q"]
    assert list(fields["fl.handoff"][1]) == [
        index // 16 for index in range(SETTLED)]
    times, txn, client, committed, response = fields["txn.end"]
    assert [times.typecode, txn.typecode, client.typecode,
            response.typecode] == ["d", "h", "b", "d"]
    assert committed == [True] * SETTLED


def test_more_kinds_than_a_byte_of_codes_holds(tmp_path):
    clock, triples = _Clock(), []
    tracer = Tracer(clock)
    for index in range(3 * 300):
        clock.now = float(index)
        kind = f"kind.{index % 300}"
        tracer.emit(kind, n=index)
        triples.append((float(index), kind, {"n": index}))
    trace = tracer.finish()
    assert trace.events.codes.itemsize > 1
    assert_reads_as(trace.events, triples)
    new, old = both_writers(tmp_path, trace)
    assert new == old


def resident_bytes(log):
    """What ``log`` keeps: its containers, and each object held in a list
    column once (the kind names and the strings a column shares count once,
    as they are one object)."""
    seen, total = set(), sys.getsizeof(log.codes)
    for columns in log.fields.values():
        for column in columns:
            total += sys.getsizeof(column)
            if type(column) is list:
                for value in column:
                    if id(value) not in seen:
                        seen.add(id(value))
                        total += sys.getsizeof(value)
    return total


def test_a_traced_run_keeps_under_22_bytes_an_event():
    """The layout's price on a real run: a kind code, the clock reading,
    8 bytes a float and 1 or 2 an int, plus a list slot for a string or a
    bool: 21.25 bytes an event here, 39.88 with every int in 8. Rows as
    tuples of boxed values cost about 119 bytes each."""
    config, seed = golden_config("g2pl_traced")
    events = run_simulation(config, seed=seed).trace.events
    assert len(events) > 4_000
    assert resident_bytes(events) / len(events) < 22


def txn_resident_bytes(log):
    """What a :class:`~repro.obs.tracer.TxnLog` keeps for its regular
    rows: its columns, each object in a list column once, its interned
    ``rounds`` shapes and its txn-id index."""
    seen = set()
    total = sys.getsizeof(log._rows_by_id) + sys.getsizeof(log.shapes)
    for column in log.columns:
        total += sys.getsizeof(column)
        if type(column) is list:
            for value in column:
                if id(value) not in seen:
                    seen.add(id(value))
                    total += sys.getsizeof(value)
    for shape in log.shapes:
        total += sys.getsizeof(shape) + sum(map(sys.getsizeof, shape))
    return total


def test_a_traced_run_keeps_under_240_bytes_a_transaction_record():
    """A finished transaction's row: 8 bytes a float, 1 or 2 an int, a
    list slot for each flag and its abort reason, and its share of the
    interned ``rounds`` shapes (140 of them) and of the txn-id index:
    225.5 bytes here. Rows as record dicts cost 887 bytes each."""
    config = SimulationConfig(
        protocol="g2pl", n_clients=50, n_items=25, read_probability=0.6,
        network_latency=500.0, total_transactions=600,
        warmup_transactions=60, record_history=False, trace=True)
    txns = run_simulation(config, seed=3).trace.txns
    rows = len(txns) - len(txns.odd)
    assert rows == 600 and len(txns.shapes) > 100
    assert txn_resident_bytes(txns) / rows < 240


# -- the view -----------------------------------------------------------------

class TestEventLogReadsAsTriples:
    @pytest.fixture(scope="class")
    def trace(self):
        config, seed = golden_config("g2pl_traced")
        return run_simulation(config, seed=seed).trace

    def test_iteration_yields_time_kind_fields_triples(self, trace):
        triples = list(trace.events)
        assert len(triples) == len(trace.events) > 1000
        for time, kind, fields in triples:
            assert type(time) is float and type(kind) is str
            assert type(fields) is dict
        send = next(fields for _, kind, fields in triples
                    if kind == "msg.send")
        assert list(send) == ["id", "src", "dst", "msg", "size", "deliver"]
        assert send["id"] == 1 and send["msg"] == "LockRequest"

    def test_pickle_round_trip(self, trace):
        copy = pickle.loads(pickle.dumps(trace))
        assert list(copy.events) == list(trace.events)
        assert list(copy.probes) == list(trace.probes)
        assert list(copy.txns) == list(trace.txns)

    def test_finish_shares_the_tracers_rows(self):
        # finish() used to copy both lists; a trace is resident once
        tracer = Tracer(_Clock())
        tracer.emit("k", a=1)
        trace = tracer.finish()
        assert trace.events is tracer.events
        assert trace.probes is tracer.probes


# -- the CSV exporters --------------------------------------------------------

class TestCsvNumbersRoundTrip:
    """``:g`` printed six significant digits: past t = 10⁶ a time lost its
    fraction and a phase row stopped summing to its response."""

    @pytest.fixture(scope="class")
    def trace(self):
        result = run_simulation(SimulationConfig(
            protocol="g2pl", n_clients=6, n_items=10,
            network_latency=50_000.0, total_transactions=100,
            warmup_transactions=10, record_history=False, trace=True,
            probe_interval=24_999.3))
        assert max(time for time, _, _ in result.trace.probes) > 1e6
        return result.trace

    def test_probe_times_and_values_parse_back_exactly(self, trace,
                                                       tmp_path):
        path = write_probes_csv(tmp_path / "probes.csv", trace)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == len(trace.probes)
        for line, (time, name, value) in zip(lines, trace.probes):
            time_text, series, value_text = line.split(",")
            assert float(time_text) == time
            assert series == name
            assert float(value_text) == value

    def test_phase_rows_parse_back_and_still_sum(self, trace, tmp_path):
        path = write_phases_csv(tmp_path / "phases.csv", trace.txns)
        header, *lines = path.read_text().splitlines()
        columns = header.split(",")
        assert len(lines) == len(trace.txns)
        assert any(record["end"] > 1e6 for record in trace.txns)
        for line, record in zip(lines, trace.txns):
            row = dict(zip(columns, line.split(",")))
            assert float(row["response"]) == record["response"]
            phases = phase_view(record)
            for name in PHASES:
                assert float(row[name]) == phases[name]
            read_back = {
                "txn": int(row["txn"]),
                "response": float(row["response"]),
                # phase_view() carves the two sub-accounts out of the wire
                "propagation": (float(row["network"])
                                + float(row["commit_coord"])
                                + float(row["abort_resolution"])),
                "transmission": 0.0, "slack": 0.0,
                **{name: float(row[name]) for name in PHASES[1:]}}
            assert sum_violation(read_back) is None
