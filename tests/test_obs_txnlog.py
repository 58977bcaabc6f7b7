"""Narrow integer columns, and the columnar transaction log against the
record dicts it replaced (``DictPathTracer`` in :mod:`tests.helpers`)."""

import pickle
import tempfile
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import repro.obs.tracer as tracer_module
from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.obs.columns import extend, put
from repro.obs.export import write_jsonl
from repro.obs.tracer import Tracer, TxnLog
from repro.perf.goldens import golden_config

from helpers import TRACED_GOLDEN_CELLS, DictPathTracer, write_jsonl_per_row

# -- narrow integer columns ---------------------------------------------------

#: typecode -> the bound its values keep under, narrowest first
WIDTHS = {"b": 2 ** 7, "h": 2 ** 15, "i": 2 ** 31, "q": 2 ** 63}

#: every width's edges, on both sides of each
EDGES = sorted({edge + step for bound in WIDTHS.values()
                for edge in (bound, -bound) for step in (-1, 0, 1)}
               | {0, 1, -1})

INTS = st.one_of(st.sampled_from(EDGES), st.integers(-300, 300),
                 st.integers(-2 ** 70, 2 ** 70))


def width(column):
    """A rank that only grows as a column widens: its item size, or past
    every array once it is a list."""
    return column.itemsize if type(column) is array else 16


@given(st.lists(st.lists(st.one_of(INTS, INTS, INTS, st.booleans()),
                         max_size=12).map(tuple), max_size=8))
def test_an_int_column_is_as_narrow_as_every_value_it_holds(batches):
    column, seen, rank = [], [], 0
    for batch in batches:
        column = extend(column, batch)
        seen.extend(batch)
        assert list(column) == seen
        assert [type(value) for value in column] == list(map(type, seen))
        assert width(column) >= rank   # a column only ever widens
        rank = width(column)
        if type(column) is array:
            assert all(type(value) is int for value in seen)  # no bool
            assert column.typecode == next(
                code for code, bound in WIDTHS.items()
                if all(-bound <= value < bound for value in seen))
        elif seen:
            assert (type(seen[0]) is bool or any(
                type(value) is bool or not -2 ** 63 <= value < 2 ** 63
                for value in seen))


@given(st.lists(INTS, min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 5),
                          st.one_of(INTS, st.booleans())), max_size=6))
def test_put_widens_as_extend_does(values, puts):
    column, expected = extend([], tuple(values)), list(values)
    for index, value in puts:
        index %= len(expected)
        column = put(column, index, value)
        expected[index] = value
        assert repr(list(column)) == repr(expected)
        if type(column) is array:
            assert all(type(value) is int for value in expected)


def test_a_float_column_stays_d():
    column = extend([], (0.5, -0.0, 1e300))
    column = extend(column, (2.0 ** -1074, -1.5))
    assert column.typecode == "d"
    assert repr(list(column)) == repr([0.5, -0.0, 1e300, 2.0 ** -1074, -1.5])


# -- the transaction log against the record dicts -----------------------------

def both_traces(config, seed=None):
    """(the shipped trace, the dict-path oracle's trace) of one run."""
    shipped = run_simulation(config, seed=seed).trace
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tracer_module, "Tracer", DictPathTracer)
        oracle = run_simulation(config, seed=seed).trace
    assert type(shipped.txns) is TxnLog and type(oracle.txns) is list
    return shipped, oracle


def assert_reads_as_the_dicts(trace, oracle, directory, config=None,
                              seed=None):
    """``trace.txns`` is the oracle's list of dicts: ``==``, key order and
    value types (``repr`` tells ``True`` from ``1`` and ``1.0`` from
    ``1``), indexing, pickling, the summary and the JSONL export."""
    log, records = trace.txns, oracle.txns
    assert len(log) == len(records)
    assert log == records and records == log
    assert repr(list(log)) == repr(records)
    picks = sorted({0, 1, len(records) // 2, len(records) - 1})
    assert repr([log[i] for i in picks]) == repr([records[i] for i in picks])
    assert repr(log[-1]) == repr(records[-1])
    assert repr(log[3:9]) == repr(records[3:9])
    assert repr(list(pickle.loads(pickle.dumps(log)))) == repr(records)
    assert repr(trace.summary) == repr(oracle.summary)
    new = write_jsonl(directory / "new.jsonl", trace, config, seed)
    old = write_jsonl_per_row(directory / "old.jsonl", oracle, config, seed)
    assert new.read_bytes() == old.read_bytes()
    row = write_jsonl_per_row(directory / "row.jsonl", trace, config, seed)
    assert new.read_bytes() == row.read_bytes()


@pytest.mark.parametrize("name", TRACED_GOLDEN_CELLS)
def test_golden_cells_read_back_as_the_dicts(name, tmp_path):
    config, seed = golden_config(name)
    trace, oracle = both_traces(config, seed)
    # close() left transactions in flight unfinished: rows of their own
    assert any(record.get("unfinished") for record in trace.txns)
    if config.n_shards > 1:
        assert any("rounds_by_shard" in record for record in trace.txns)
    assert_reads_as_the_dicts(trace, oracle, tmp_path, config, seed)


def test_late_charges_write_through_to_settled_rows(tmp_path, monkeypatch):
    """Table 1's g-2PL: MR1W handoffs charge committed transactions after
    their coroutines returned, some of them more than a stage of
    finishes later."""
    reopened = []
    of = tracer_module._TxnAcc.of.__func__
    monkeypatch.setattr(tracer_module._TxnAcc, "of", classmethod(
        lambda cls, record: reopened.append(record["txn"]) or of(cls,
                                                                 record)))
    config = SimulationConfig(
        protocol="g2pl", n_clients=50, n_items=25, read_probability=0.6,
        network_latency=500.0, total_transactions=600,
        warmup_transactions=60, record_history=False, trace=True)
    trace, oracle = both_traces(config, seed=3)
    assert len(reopened) > 5
    assert_reads_as_the_dicts(trace, oracle, tmp_path, config, 3)


def test_a_late_shard_charge_gives_a_settled_row_keys_of_its_own(tmp_path):
    shipped, oracle = script([
        ("finish", 1, True, True, None, 5.0),
        *(("finish", txn, True, True, None, 1.0) for txn in range(2, 80)),
        ("round", 1, "handoff", 3), ("round", 40, "handoff", None),
    ])
    assert shipped.txns.odd and list(shipped.txns.odd) == [0]
    assert list(shipped.txns[0])[-8] == "rounds_by_shard"
    assert_reads_as_the_dicts(shipped, oracle, tmp_path)


def test_equal_values_that_print_differently_are_two_shapes(tmp_path):
    """``True`` and ``1``, ``-0.0`` and ``0.0``: equal, and one hash,
    but printed as themselves in a list column's slot."""
    shipped, oracle = script([
        ("finish", txn, (True, 1, False, 0)[txn % 4], True,
         (None, "x", 0.0, -0.0)[txn // 4 % 4], 2.0)
        for txn in range(1, 40)])
    assert_reads_as_the_dicts(shipped, oracle, tmp_path)


def script(operations, stage=None):
    """Run ``operations`` on a shipped tracer and on the dict-path oracle
    under one clock, close both, and return their finished traces."""
    clock = SimpleNamespace(now=0.0)
    tracers = Tracer(clock), DictPathTracer(clock)
    with pytest.MonkeyPatch.context() as patch:
        if stage is not None:
            patch.setattr(tracer_module, "STAGE_TXNS", stage)
        for operation in operations:
            clock.now += 1.0
            kind, txn, *args = operation
            for tracer in tracers:
                if kind == "begin":
                    tracer.txn_begin(SimpleNamespace(txn_id=txn,
                                                     client_id=txn % 7))
                elif kind == "round":
                    tracer.round_charge(txn, *args)
                elif kind == "think":
                    tracer.think_charge(txn, *args)
                elif kind == "overhead":
                    tracer.overhead_charge(txn, *args)
                else:
                    committed, measured, reason, response = args
                    tracer.txn_finished(SimpleNamespace(
                        txn_id=txn, client_id=txn % 7, committed=committed,
                        start_time=clock.now - 1.0, end_time=clock.now,
                        response_time=response, n_ops=txn % 4,
                        abort_reason=reason), measured)
        shipped, oracle = tracers
        assert repr(shipped.partial_records()) == repr(
            oracle.partial_records())
        assert repr(shipped.close()) == repr(oracle.close())
        return shipped.finish(), oracle.finish()


TXNS = st.one_of(st.integers(0, 40), st.sampled_from([10 ** 6, -2]))
AMOUNTS = st.one_of(st.floats(), st.integers(-2 ** 40, 2 ** 40))
OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("begin"), TXNS),
    st.tuples(st.just("round"), TXNS,
              st.sampled_from(["request", "grant", "handoff",
                               "grant_concurrent"]),
              st.sampled_from([None, None, 0, 3])),
    st.tuples(st.just("think"), TXNS, AMOUNTS),
    st.tuples(st.just("overhead"), TXNS, AMOUNTS),
    st.tuples(st.just("finish"), TXNS, st.sampled_from([True, False, 1, 0]),
              st.booleans(),
              st.sampled_from([None, "deadlock", "victim", 0.0, -0.0]),
              st.one_of(st.floats(0.0, 1e6), AMOUNTS)),
), max_size=150)


@given(OPERATIONS, st.sampled_from([1, 3, 64]))
def test_any_script_reads_back_as_the_dicts(operations, stage):
    """Late charges to staged and settled rows, a second finish, far and
    negative txn ids, NaN, infinities and ints where floats go, ``1``
    beside ``True`` and ``-0.0`` beside ``0.0`` in a list column, a shard
    charge late: the log, its summary and its export are the dicts'."""
    shipped, oracle = script(operations, stage)
    assert repr(list(shipped.txns)) == repr(oracle.txns)
    assert repr(list(pickle.loads(pickle.dumps(shipped.txns)))) == repr(
        oracle.txns)
    assert repr(shipped.summary) == repr(oracle.summary)
    with tempfile.TemporaryDirectory() as name:
        new = write_jsonl(Path(name) / "new.jsonl", shipped)
        old = write_jsonl_per_row(Path(name) / "old.jsonl", oracle)
        assert new.read_bytes() == old.read_bytes()
