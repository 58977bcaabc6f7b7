"""Tests for the observability stack: round accounting, tracing,
schema validation, exporters, and probes."""

import hashlib
import json

import pytest

from repro.analysis.tables import render_rounds_table
from repro.core.config import SimulationConfig
from repro.core.runner import run_simulation
from repro.network import Network, Site, UniformTopology
from repro.network.faults import FaultInjector, FaultSpec
from repro.obs.probes import ProbeSampler
from repro.obs.rounds import (
    contended_round_profile,
    expected_rounds,
    round_table,
)
from repro.obs.schema import EVENT_SCHEMA, validate_events, validate_trace
from repro.obs.export import (
    write_chrome_trace,
    write_jsonl,
    write_probes_csv,
)
from repro.obs.summary import TraceSummary
from repro.obs.tracer import Tracer
from repro.perf.goldens import golden_config
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

from helpers import TRACED_GOLDEN_CELLS


def traced_config(protocol, **overrides):
    base = dict(protocol=protocol, n_clients=6, n_items=10,
                total_transactions=100, warmup_transactions=10,
                record_history=False, trace=True, probe_interval=200.0)
    base.update(overrides)
    return SimulationConfig(**base)


class TestRoundAccounting:
    """The paper's arithmetic: s-2PL costs 3m sequential message rounds
    to drain m contenders on one item; g-2PL costs 2m+1."""

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_s2pl_three_m(self, m):
        profile = contended_round_profile("s2pl", m)
        assert profile.rounds_total == 3 * m
        assert profile.matches_expectation
        assert profile.rounds_by_kind == {
            "request": m, "grant": m, "release": m}

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_g2pl_two_m_plus_one(self, m):
        profile = contended_round_profile("g2pl", m)
        assert profile.rounds_total == 2 * m + 1
        assert profile.matches_expectation
        # m requests; one server grant to the chain head; m-1 merged
        # release+grant handoffs; one final return to the server.
        assert profile.rounds_by_kind == {
            "request": m, "grant": 1, "handoff": m - 1, "release": 1}

    def test_expected_rounds_closed_forms(self):
        assert expected_rounds("s2pl", 5) == 15
        assert expected_rounds("g2pl", 5) == 11
        assert expected_rounds("g2pl-basic", 3) == 7

    def test_mean_rounds_per_commit(self):
        profile = contended_round_profile("g2pl", 4)
        assert profile.mean_rounds_per_commit == pytest.approx(9 / 4)

    def test_round_table_renders(self):
        table = render_rounds_table(round_table(ms=(2,)))
        assert "s2pl" in table and "g2pl" in table
        assert "NO" not in table  # every row matches its expectation

    @pytest.mark.parametrize("name", ["g2pl_sharded_traced",
                                      "hybrid_sharded_traced",
                                      "s2pl_sharded_traced"])
    def test_every_sharded_grant_round_names_its_shard(self, name):
        # A grafted reader's grant used to be charged with no shard, so
        # rounds_by_shard under-counted hybrid's grants.
        config, seed = golden_config(name)
        for record in run_simulation(config, seed=seed).trace.txns:
            by_shard = record.get("rounds_by_shard", {}).values()
            assert record["rounds"].get("grant", 0) == sum(
                kinds.get("grant", 0) for kinds in by_shard), record["txn"]


class TestTracedRun:
    def test_trace_summary_agrees_with_metrics(self):
        result = run_simulation(traced_config("g2pl"))
        summary = result.trace.summary
        assert summary.committed == result.metrics.committed
        assert summary.aborted == result.metrics.aborted

    def test_traced_message_counts_match_network_accounting(self):
        # The tracer counts sends independently at a different layer;
        # both totals and the per-kind breakdown must agree exactly.
        for protocol in ("s2pl", "g2pl"):
            result = run_simulation(traced_config(protocol))
            summary = result.trace.summary
            assert summary.messages_sent == result.messages_sent
            per_type = {}
            for record in result.trace.events:
                if record[1] == "msg.send":
                    msg = record[2]["msg"]
                    per_type[msg] = per_type.get(msg, 0) + 1
            assert per_type == summary.msgs_by_kind

    def test_response_decomposition_sums_to_response(self):
        # lock_wait is the residual, so the components always add up.
        result = run_simulation(traced_config("s2pl"))
        for record in result.trace.txns:
            explained = (record["propagation"] + record["transmission"]
                         + record["slack"] + record["server_queue"]
                         + record["client_think"] + record["lock_wait"])
            assert explained == pytest.approx(record["response"])

    def test_txn_records_cover_every_finished_transaction(self):
        config = traced_config("g2pl")
        result = run_simulation(config)
        measured = [r for r in result.trace.txns if r["measured"]]
        assert len(measured) == (result.metrics.committed
                                 + result.metrics.aborted)

    def test_engine_stats_populated(self):
        result = run_simulation(traced_config("s2pl"))
        assert result.engine_stats["processed_events"] > 0
        assert result.engine_stats["peak_heap_depth"] > 0
        assert "events/sec" in result.engine_summary()

    def test_untraced_run_has_no_trace(self):
        config = SimulationConfig(protocol="s2pl", n_clients=4,
                                  total_transactions=40,
                                  warmup_transactions=4,
                                  record_history=False)
        result = run_simulation(config)
        assert result.trace is None
        assert result.engine_stats["processed_events"] > 0


class TestTracerClose:
    """Regression: transactions in flight when the run ends used to
    linger in the tracer's live table — exporters dropped them and
    ``partial_records`` misreported them as foreign charges."""

    def test_run_ending_mid_transaction_emits_unfinished_records(self):
        # Six clients, so several transactions are always in flight when
        # the 100th finisher closes the run.
        result = run_simulation(traced_config("g2pl"))
        unfinished = [r for r in result.trace.txns if r.get("unfinished")]
        assert unfinished
        for record in unfinished:
            assert record["measured"] is False
            assert record["committed"] is False
            assert record["abort_reason"] == "unfinished"
            assert record["response"] >= 0.0
        assert validate_trace(result.trace) == []
        # Summaries aggregate finished work only; the unfinished tail
        # must not leak into them.
        summary = result.trace.summary
        assert summary.committed == result.metrics.committed
        assert summary.aborted == result.metrics.aborted

    def test_close_drains_live_accumulators(self):
        from repro.locking.modes import LockMode
        from repro.obs.tracer import Tracer
        from repro.protocols.transaction import Transaction
        from repro.workload.spec import Operation, TransactionSpec

        sim = Simulator()
        tracer = Tracer(sim)
        spec = TransactionSpec(operations=(
            Operation(0, LockMode.READ, 1.0),))
        tracer.txn_begin(Transaction(1, 1, spec))
        assert len(tracer.partial_records()) == 1
        records = tracer.close()
        assert [r["txn"] for r in records] == [1]
        assert records[0]["unfinished"] is True
        assert tracer.partial_records() == []
        assert tracer.close() == records  # idempotent once drained


class TestSchema:
    @pytest.mark.parametrize("protocol", ["s2pl", "g2pl"])
    def test_faulted_traced_run_validates(self, protocol):
        config = traced_config(
            protocol, faults="loss=0.05,dup=0.01,jitter=25,crash=2@6000:12000")
        result = run_simulation(config)
        assert validate_trace(result.trace) == []

    @pytest.mark.parametrize("name", TRACED_GOLDEN_CELLS)
    def test_traced_golden_cells_validate(self, name):
        config, seed = golden_config(name)
        assert validate_trace(run_simulation(config, seed=seed).trace) == []

    @pytest.mark.parametrize("expected, overrides", [
        ({"hybrid.switch"}, dict(protocol="hybrid")),
        ({"twopc.prepare", "twopc.decision", "lock.deadlock.distributed"},
         dict(protocol="s2pl", n_shards=4, n_regions=2,
              cross_shard_probability=0.5, intra_region_latency=1.0)),
    ], ids=["adaptive", "sharded-2pc"])
    def test_adaptive_and_sharded_2pc_runs_validate(
            self, expected, overrides):
        # the schema used to stop at the single-server static kinds: every
        # kind named here was "unknown" and these runs reported errors
        result = run_simulation(traced_config(
            total_transactions=300, warmup_transactions=30, **overrides))
        assert expected <= {kind for _, kind, _ in result.trace.events}
        assert validate_trace(result.trace) == []

    def test_every_kind_emitted_under_src_is_in_the_schema(self):
        """The traced golden cells and the two runs above record only
        declared kinds, each under exactly its declared columns (the
        static half — every ``row(`` call site against the schema — is in
        ``tests/test_structure.py``)."""
        seen = {}
        for name in TRACED_GOLDEN_CELLS:
            config, seed = golden_config(name)
            log = run_simulation(config, seed=seed).trace.events
            assert not log.odd
            for _, kind, fields in log:
                seen.setdefault(kind, set()).add(len(fields))
        assert len(seen) > 15
        for kind, widths in seen.items():
            assert widths == {len(EVENT_SCHEMA[kind])}, kind

    def test_kind_with_two_key_sets_caught(self):
        events = [(0.0, "fl.repair", {"item": 1, "action": "x",
                                      "crashed": 0}),
                  (1.0, "fl.repair", {"item": 1, "crashed": 0,
                                      "action": "x"})]
        errors = validate_events(events)
        assert len(errors) == 1 and "differ from" in errors[0]

    def test_unknown_kind_caught(self):
        errors = validate_events([(0.0, "bogus.kind", {})])
        assert any("unknown kind" in e for e in errors)

    def test_missing_field_caught(self):
        errors = validate_events([(0.0, "lock.grant", {"txn": 1})])
        assert any("missing fields" in e for e in errors)

    def test_time_disorder_caught(self):
        events = [(5.0, "txn.begin", {"txn": 1, "client": 1}),
                  (3.0, "txn.begin", {"txn": 2, "client": 2})]
        errors = validate_events(events)
        assert any("time-ordered" in e for e in errors)

    def test_error_cap(self):
        events = [(0.0, "bogus", {})] * 50
        errors = validate_events(events, max_errors=5)
        assert errors[-1].startswith("...")
        assert len(errors) == 6


class TestExporters:
    @pytest.fixture(scope="class")
    def traced(self):
        config = traced_config("g2pl", faults="loss=0.03,jitter=10")
        return config, run_simulation(config)

    def test_jsonl_round_trips(self, traced, tmp_path):
        config, result = traced
        path = write_jsonl(tmp_path / "t.jsonl", result.trace,
                           config=config, seed=result.seed)
        rows = [json.loads(line) for line in open(path, encoding="utf-8")]
        assert rows[0]["type"] == "header"
        assert rows[0]["seed"] == result.seed
        assert (rows[0]["summary"]["committed"]
                == result.trace.summary.committed)
        by_type = {}
        for row in rows[1:]:
            by_type[row["type"]] = by_type.get(row["type"], 0) + 1
        assert by_type["event"] == len(result.trace.events)
        assert by_type["txn"] == len(result.trace.txns)
        assert by_type["probe"] == len(result.trace.probes)

    def test_jsonl_event_rows_keep_their_kind(self, traced, tmp_path):
        # Regression: msg.send carried a field also called "kind" (the
        # message type), which replaced the row's own kind in the
        # flattened JSON object — no exported row said "msg.send".
        config, result = traced
        path = write_jsonl(tmp_path / "t.jsonl", result.trace,
                           config=config, seed=result.seed)
        exported, recorded = {}, {}
        for line in open(path, encoding="utf-8"):
            row = json.loads(line)
            if row["type"] == "event":
                exported[row["kind"]] = exported.get(row["kind"], 0) + 1
        for _, kind, _ in result.trace.events:
            recorded[kind] = recorded.get(kind, 0) + 1
        assert exported == recorded
        assert exported["msg.send"] == result.trace.summary.messages_sent

    def test_chrome_trace_loads(self, traced, tmp_path):
        _, result = traced
        path = write_chrome_trace(tmp_path / "t.chrome.json", result.trace)
        doc = json.load(open(path, encoding="utf-8"))
        events = doc["traceEvents"]
        spans = [e for e in events if e.get("ph") == "X"
                 and e.get("cat") == "txn"]
        assert len(spans) == len(result.trace.txns)
        flights = [e for e in events if e.get("ph") == "X"
                   and e.get("cat") == "msg"]
        assert len(flights) == result.trace.summary.messages_sent
        counters = [e for e in events if e.get("ph") == "C"]
        assert len(counters) == len(result.trace.probes)
        for event in events:
            assert event.get("dur", 0.0) >= 0.0

    def test_probes_csv(self, traced, tmp_path):
        _, result = traced
        path = write_probes_csv(tmp_path / "t.csv", result.trace)
        lines = open(path, encoding="utf-8").read().splitlines()
        assert lines[0] == "time,series,value"
        assert len(lines) == 1 + len(result.trace.probes)


class TestProbes:
    def test_samples_on_interval(self):
        result = run_simulation(traced_config("s2pl", probe_interval=500.0))
        times = sorted({t for t, _, _ in result.trace.probes})
        assert len(times) > 2
        for time in times:
            assert time % 500.0 == pytest.approx(0.0)

    def test_standard_gauges_present(self):
        result = run_simulation(traced_config("g2pl"))
        names = {name for _, name, _ in result.trace.probes}
        assert {"heap_pending", "in_flight_msgs", "lock_queue_depth",
                "fl_occupancy"} <= names

    def test_probe_summary_aggregates(self):
        result = run_simulation(traced_config("s2pl"))
        series = result.trace.summary.probe_series
        cell = series["heap_pending"]
        samples = [v for _, n, v in result.trace.probes
                   if n == "heap_pending"]
        assert cell["n"] == len(samples)
        assert cell["sum"] == pytest.approx(sum(samples))
        assert cell["max"] == max(samples)

    def test_bad_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ProbeSampler(sim, None, 0.0, [])
        with pytest.raises(ValueError):
            SimulationConfig(probe_interval=-1.0)


class TestMessageNumbering:
    """A message's ``id`` is the order the run's tracer first saw it in,
    stamped on the envelope; it used to be looked up in a dict keyed on a
    process-global envelope counter. The expected values below were
    recorded with that dict."""

    @staticmethod
    def numbering(events):
        return [(kind, fields["id"]) for _, kind, fields in events
                if kind.startswith("msg.") and "id" in fields]

    def test_two_traced_runs_in_one_process_number_alike(self):
        config = traced_config(
            "g2pl", total_transactions=150, probe_interval=None,
            faults="loss=0.05,dup=0.03,jitter=25,crash=2@6000:12000")
        first = self.numbering(run_simulation(config, seed=29).trace.events)
        second = self.numbering(run_simulation(config, seed=29).trace.events)
        assert first == second
        assert first[:3] == [("msg.send", 1), ("msg.send", 2),
                             ("msg.send", 3)]
        # drops, duplicates and crash-severed copies included: every id
        # from 1 up is used, each by every row about that message
        assert {mid for _, mid in first} == set(range(1, 3500))
        assert len(first) == 7207
        assert hashlib.sha256(repr(first).encode()).hexdigest().startswith(
            "2044fd79ebdfc0f8")

    def test_late_tracer_numbers_at_first_sight_and_a_duplicate_once(self):
        class Sink(Site):
            def receive(self, envelope):
                pass

        sim = Simulator()
        net = Network(sim, UniformTopology(10.0))
        for site_id in range(3):
            net.add_site(Sink(site_id))
        net.faults = FaultInjector(
            FaultSpec(duplicate_probability=0.9, extra_jitter=3.0),
            RandomStreams(7).spawn("faults"))
        early = [net.send(0, 1, "early-a"), net.send(1, 0, "early-b"),
                 net.send(0, 2, "early-c")]
        assert [envelope.envelope_id for envelope in early] == [None] * 3
        sim.run(until=5.0)
        tracer = sim.tracer = Tracer(sim)
        late = [net.send(0, 1, "late-a"), net.send(2, 1, "late-b")]
        sim.run()
        # the early three are first seen landing (3, 4, 5); both copies
        # of a duplicated envelope carry the one number
        assert self.numbering(tracer.events) == [
            ("msg.dup", 1), ("msg.send", 1), ("msg.dup", 2), ("msg.send", 2),
            ("msg.deliver", 3), ("msg.deliver", 4), ("msg.deliver", 4),
            ("msg.deliver", 5), ("msg.deliver", 5), ("msg.deliver", 2),
            ("msg.deliver", 2), ("msg.deliver", 1), ("msg.deliver", 1)]
        assert [envelope.envelope_id for envelope in late] == [1, 2]
        assert sorted(envelope.envelope_id for envelope in early) == [3, 4, 5]


class TestSummaryMerge:
    def test_merge_of_nothing_is_none(self):
        assert TraceSummary.merge([]) is None
        assert TraceSummary.merge([None, None]) is None

    def test_merge_sums_and_maxima(self):
        a = TraceSummary(committed=3, rounds_total=9,
                         rounds_by_kind={"request": 3, "grant": 3},
                         messages_sent=10, response_sum=30.0,
                         peak_heap_depth=7, processed_events=100)
        b = TraceSummary(committed=2, rounds_total=5,
                         rounds_by_kind={"request": 2, "handoff": 1},
                         messages_sent=4, response_sum=12.0,
                         peak_heap_depth=11, processed_events=50)
        merged = TraceSummary.merge([a, None, b])
        assert merged.runs == 2
        assert merged.committed == 5
        assert merged.rounds_total == 14
        assert merged.rounds_by_kind == {"request": 5, "grant": 3,
                                         "handoff": 1}
        assert merged.messages_sent == 14
        assert merged.peak_heap_depth == 11
        assert merged.processed_events == 150
        assert merged.mean_rounds_per_commit == pytest.approx(14 / 5)
        assert merged.mean_response_time == pytest.approx(42.0 / 5)

    def test_describe_renders(self):
        summary = TraceSummary(committed=2, rounds_total=6,
                               response_sum=20.0, lock_wait_sum=10.0)
        text = summary.describe()
        assert "mean sequential rounds per commit: 3.00" in text
        assert "lock_wait 50.0%" in text
