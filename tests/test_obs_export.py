"""The flat-row event log and the compiled JSONL writer, each against
the thing it replaced: the list of ``(time, kind, fields)`` triples, and
the per-row ``json.dumps`` writer kept in :mod:`tests.helpers`."""

import json
import math
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.obs.export import (
    write_jsonl,
    write_phases_csv,
    write_probes_csv,
)
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


def traced(events, probes=()):
    """A finished trace of hand-made ``(time, kind, fields)`` events."""
    clock = _Clock()
    tracer = Tracer(clock)
    for time, kind, fields in events:
        clock.now = time
        tracer.emit(kind, **fields)
    tracer.probes.extend(probes)
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

    def test_kind_with_two_key_sets_keeps_each_rows_own_names(self, tmp_path):
        trace = traced([(1.0, "k", {"a": 1, "b": 2}),
                        (2.0, "k", {"b": 3}),
                        (3.0, "k", {"b": 4, "a": 5}),
                        (4.0, "k", {"a": 6, "b": 7}),
                        (5.0, "k", {})])
        assert sorted(trace.events.odd) == [1, 2, 4]
        new, old = both_writers(tmp_path, trace)
        assert new == old
        rows = [json.loads(line) for line in new.splitlines()[1:]]
        assert [list(row)[3:] for row in rows] == [
            ["a", "b"], ["b"], ["b", "a"], ["a", "b"], []]

    def test_non_finite_floats_print_as_json_prints_them(self, tmp_path):
        trace = traced(
            [(1.0, "k", {"x": math.inf, "y": 2.5}),
             (2.0, "k", {"x": 1.5, "y": -math.inf}),
             (math.inf, "k", {"x": 1.5, "y": math.nan}),
             (3.0, "k", {"x": -0.0, "y": 2 ** 70})],
            probes=[(1.0, "gauge", math.nan), (2.0, "gauge", 3.0)])
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
# few kinds, so they repeat — with whatever key sets the draw gives them
kinds = st.one_of(st.sampled_from(["k", "msg.send", "100%", 'say "hi"']),
                  hostile_text)
times = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.integers(min_value=0, max_value=2 ** 60))
events_strategy = st.lists(
    st.tuples(times, kinds, st.dictionaries(field_names, values, max_size=4)),
    max_size=12)
probes_strategy = st.lists(
    st.tuples(times, st.one_of(st.sampled_from(["heap", "50%"]), hostile_text),
              st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                        st.integers(-5, 2 ** 60))),
    max_size=6)


@settings(max_examples=200, deadline=None)
@given(events=events_strategy, probes=probes_strategy)
def test_synthetic_hostile_trace_matches_oracle_and_the_triples(events,
                                                                probes):
    trace = traced(events, probes)
    with tempfile.TemporaryDirectory() as directory:
        new, old = both_writers(directory, trace)
    assert new == old
    for line in new.splitlines():
        json.loads(line)
    # repr compares NaNs by spelling, as == on the same objects would
    log = trace.events
    assert len(log) == len(events)
    assert repr(list(log)) == repr(events)
    assert repr([log[i] for i in range(len(events))]) == repr(events)
    assert repr(list(pickle.loads(pickle.dumps(log)))) == repr(events)
    assert log == events  # same value objects, so NaN is NaN by identity


# -- the view -----------------------------------------------------------------

class TestEventLogReadsAsTheListDid:
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

    def test_indexing_and_slicing(self, trace):
        log, triples = trace.events, list(trace.events)
        assert log[0] == triples[0]
        assert log[-1] == triples[-1]
        assert log[len(log) - 1] == triples[-1]
        assert log[3:7] == triples[3:7]
        assert log[::-500] == triples[::-500]
        with pytest.raises(IndexError):
            log[len(log)]
        with pytest.raises(IndexError):
            log[-len(log) - 1]

    def test_equality(self, trace):
        log, triples = trace.events, list(trace.events)
        assert log == triples and triples == log
        assert log == log
        assert log != triples[:-1]
        changed = list(triples)
        time, kind, fields = changed[5]
        changed[5] = (time, kind, dict(fields, extra=1))
        assert log != changed
        assert log != "not a trace"

    def test_pickle_round_trip(self, trace):
        copy = pickle.loads(pickle.dumps(trace))
        assert copy.events == trace.events
        assert list(copy.events) == list(trace.events)
        assert copy.probes == trace.probes
        assert copy.txns == trace.txns

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
