"""The decomposition invariant battery (PR 8).

Every traced transaction's phase spans — network, client_think,
commit_coord, abort_resolution, overhead, lock_wait — must sum *exactly* to its measured response time, across every protocol
family, under fault injection, at jobs=1 and jobs=N, and through the
live merge. Tracing itself must stay observation-only: a traced run's
metrics fingerprint must be byte-identical to the untraced run (the
golden replay suite pins the same property against the committed
pre-optimization goldens).
"""

import functools
import math

import pytest

from repro.core.config import SimulationConfig
from repro.core.parallel import SimulationCell, run_cells
from repro.core.runner import run_simulation
from repro.obs.decompose import (
    DivergenceReport,
    compare,
    decompose_records,
)
from repro.obs.spans import (
    PHASES,
    PhaseAccumulator,
    check_record,
    check_records,
    phase_view,
    sum_violation,
    tolerance,
)
from repro.obs.rounds import expected_txn_rounds
from repro.perf.fingerprint import result_fingerprint
from repro.perf.goldens import FAULTS
from repro.protocols.registry import available_protocols

from helpers import ACCEPTED_BATTERY, battery_keywords
from helpers import account_record as _record
from helpers import endpoint_payload, partial_record


def traced_config(**overrides):
    base = dict(protocol="s2pl", n_clients=6, n_items=8,
                read_probability=0.6, network_latency=100.0,
                total_transactions=120, warmup_transactions=20,
                record_history=False, trace=True)
    base.update(overrides)
    return SimulationConfig(**base)


SHARDED = dict(n_shards=4, n_regions=2, cross_shard_probability=0.5,
               intra_region_latency=1.0)

#: one cell per protocol family the decomposition must hold over
PROTOCOL_CELLS = {
    "s2pl": dict(protocol="s2pl"),
    "g2pl": dict(protocol="g2pl"),
    "sharded-2pc": dict(protocol="s2pl", **SHARDED),
    "sharded-2pc-opt": dict(protocol="s2pl", commit_protocol="2pc-opt",
                            **SHARDED),
    "sharded-g2pl": dict(protocol="g2pl", **SHARDED),
}


class TestInvariantAcrossProtocols:
    @pytest.mark.parametrize("name", sorted(PROTOCOL_CELLS))
    def test_phases_sum_exactly_for_every_traced_txn(self, name):
        result = run_simulation(traced_config(**PROTOCOL_CELLS[name]),
                                seed=11)
        finished = [r for r in result.trace.txns
                    if not r.get("unfinished")]
        assert finished, "traced run produced no finished transactions"
        assert check_records(finished) == []
        for record in finished:
            phases = phase_view(record)
            assert sum(phases.values()) == pytest.approx(
                record["response"], abs=tolerance(record["response"]))
            # the simulator has no codec/scheduling overhead by definition
            assert phases["overhead"] == 0.0

    def test_commit_coord_charged_only_under_2pc(self):
        plain = run_simulation(traced_config(), seed=11)
        assert all(record["commit_coord"] == 0.0
                   for record in plain.trace.txns)
        sharded = run_simulation(
            traced_config(**PROTOCOL_CELLS["sharded-2pc"]), seed=11)
        coordinated = [r for r in sharded.trace.txns
                       if r["committed"] and r["commit_coord"] > 0.0]
        assert coordinated, "no cross-shard commit paid 2PC wire time"
        # 2PC wire is carved out of the generic network phase, never
        # added on top: the components still sum the same way
        for record in coordinated:
            assert record["commit_coord"] <= (
                record["propagation"] + record["transmission"]
                + record["slack"] + tolerance(record["response"]))

    def test_abort_resolution_never_hits_committed_txns(self):
        result = run_simulation(
            traced_config(n_clients=8, n_items=6, read_probability=0.2),
            seed=3)
        aborted = [r for r in result.trace.txns if not r["committed"]
                   and not r.get("unfinished")]
        assert aborted, "contended cell produced no aborts"
        assert all(r["abort_resolution"] == 0.0
                   for r in result.trace.txns if r["committed"])
        assert any(r["abort_resolution"] > 0.0 for r in aborted)
        # aborted records still satisfy the (relaxed) invariant
        assert check_records(aborted) == []


class TestInvariantUnderFaults:
    """Retransmissions replay a flight the transaction already paid for
    once; under faults the reliable channel hands the tracer no envelope,
    so propagation must not be double-charged and the residual must stay
    a valid span."""

    @pytest.mark.parametrize("protocol", ["s2pl", "g2pl"])
    def test_faulted_runs_keep_the_invariant(self, protocol):
        result = run_simulation(
            traced_config(protocol=protocol, n_clients=5, n_items=6,
                          total_transactions=100, warmup_transactions=15,
                          faults=FAULTS),
            seed=7)
        finished = [r for r in result.trace.txns
                    if not r.get("unfinished")]
        assert check_records(finished) == []
        summary = result.trace.summary
        assert summary.retransmissions > 0 or summary.drops_injected > 0
        # committed txns paid at most their measured response in wire time
        for record in finished:
            if record["committed"]:
                assert record["propagation"] <= record["response"]


#: the fingerprint keys only a traced run has
TRACE_KEYS = ("trace_summary", "trace_events", "trace_txns", "trace_probes")

#: one client and nothing to wait for (SNIPPETS.md §2, SELECT 1): every
#: charge a transaction waited on is in its account, so the residual is 0
SOLO = dict(n_clients=1, n_items=50, total_transactions=100,
            warmup_transactions=10, network_latency=100.0, trace=True)


@functools.lru_cache(maxsize=None)
def _solo_records(protocol):
    """``{txn: record}`` of the committed transactions of the lone-client
    run under ``protocol`` (seed 7; every protocol draws the same
    transactions)."""
    result = run_simulation(SimulationConfig(protocol=protocol, **SOLO),
                            seed=7)
    return {record["txn"]: record for record in result.trace.txns
            if record["committed"]}


class TestEveryProtocolKeepsItsAccount:
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_a_lone_client_never_waits_for_a_lock(self, protocol):
        records = _solo_records(protocol)
        assert records
        for record in records.values():
            assert abs(phase_view(record)["lock_wait"]) <= tolerance(
                record["response"]), record

    @pytest.mark.parametrize("protocol", sorted(
        set(available_protocols()) - {"c2pl", "hybrid"}))
    def test_rounds_per_commit_are_the_closed_form(self, protocol):
        for record in _solo_records(protocol).values():
            assert record["rounds_sequential"] == expected_txn_rounds(
                protocol, record["n_ops"])

    def test_hybrid_runs_one_familys_rounds(self):
        for record in _solo_records("hybrid").values():
            assert record["rounds_sequential"] in {
                expected_txn_rounds(family, record["n_ops"])
                for family in ("s2pl", "g2pl")}

    def test_a_cached_read_costs_its_think_time_and_no_round(self):
        cached, plain = _solo_records("c2pl"), _solo_records("s2pl")
        assert cached.keys() == plain.keys()
        hits = 0
        for txn, record in cached.items():
            rounds = record["rounds"]
            requests = rounds.get("request", 0)
            assert rounds.get("grant", 0) == requests
            assert record["rounds_sequential"] == 2 * requests + 1
            # the same operations think the same: hit or not
            assert record["client_think"] == plain[txn]["client_think"]
            hits += record["n_ops"] - requests
        assert hits > 0


class TestTracingIsObservationOnly:
    def test_traced_and_untraced_runs_share_a_metrics_fingerprint(self):
        kwargs = dict(PROTOCOL_CELLS["sharded-2pc"])
        untraced = run_simulation(traced_config(trace=False, **kwargs),
                                  seed=11)
        traced = run_simulation(traced_config(**kwargs), seed=11)
        traced_fp = result_fingerprint(traced)
        for key in TRACE_KEYS:
            traced_fp.pop(key)
        assert traced_fp == result_fingerprint(untraced)

    @pytest.mark.parametrize("protocol,n_shards,faults,commit,cross,users",
                             ACCEPTED_BATTERY)
    def test_every_battery_cell_traces_without_steering(
            self, protocol, n_shards, faults, commit, cross, users):
        keywords = battery_keywords(protocol, n_shards, faults, commit,
                                    cross, users)
        untraced = run_simulation(SimulationConfig(**keywords), seed=5)
        traced = run_simulation(SimulationConfig(trace=True, **keywords),
                                seed=5)
        traced_fp = result_fingerprint(traced)
        for key in TRACE_KEYS:
            traced_fp.pop(key)
        assert traced_fp == result_fingerprint(untraced)
        assert check_records(r for r in traced.trace.txns
                             if not r.get("unfinished")) == []


class TestPooledParity:
    def test_jobs1_and_jobs4_agree_on_phase_sums(self):
        cells = [SimulationCell(config=traced_config(**kwargs), seed=11)
                 for _, kwargs in sorted(PROTOCOL_CELLS.items())]
        serial = run_cells(cells, jobs=1)
        pooled = run_cells(cells, jobs=4)
        for a, b in zip(serial, pooled):
            assert a.trace.summary.sums == b.trace.summary.sums


class TestSpanArithmetic:
    def test_phase_view_carves_coordination_out_of_network(self):
        phases = phase_view(_record())
        assert phases["network"] == pytest.approx(40.0 + 5.0 + 1.0 - 10.0)
        assert phases["commit_coord"] == 10.0
        assert sum(phases.values()) == pytest.approx(100.0)

    def test_sum_violation_catches_a_broken_budget(self):
        record = _record()
        record["lock_wait"] += 2.5
        assert "delta" in sum_violation(record)
        assert check_record(record) != []

    def test_negative_lock_wait_is_fatal_only_when_committed(self):
        record = _record(client_think=60.0)  # residual −6
        assert any("lock_wait is negative" in v
                   for v in check_record(record))
        aborted = _record(client_think=60.0, committed=False)
        assert check_record(aborted) == []
        # ... but strictness can be forced either way
        assert check_record(aborted, strict_lock_wait=True) != []
        assert check_record(record, strict_lock_wait=False) == []

    def test_other_negative_phases_are_always_fatal(self):
        record = _record(commit_coord=60.0)  # network goes negative
        assert any("network is negative" in v
                   for v in check_record(record))


class TestPhaseAccumulator:
    def _records(self, n=60):
        return [_record(txn=i, response=100.0 + i,
                        propagation=40.0 + (i % 7),
                        client_think=20.0 + (i % 3))
                for i in range(n)]

    def test_streaming_spill_preserves_moments_and_percentiles(self):
        exact = PhaseAccumulator(threshold=10_000)
        streaming = PhaseAccumulator(threshold=10, reservoir_capacity=1024)
        for record in self._records():
            exact.add(record)
            streaming.add(record)
        assert exact.reservoirs is None and streaming.reservoirs
        for name in PHASES:
            assert streaming.mean(name) == pytest.approx(exact.mean(name))
            assert streaming.totals[name] == pytest.approx(
                exact.totals[name])
            # capacity exceeds n, so the reservoir kept every value and
            # the interpolated percentiles match the exact path
            for p in (50.0, 95.0):
                assert streaming.percentile(name, p) == pytest.approx(
                    exact.percentile(name, p))

    def test_fractions_sum_to_one(self):
        acc = PhaseAccumulator()
        for record in self._records():
            acc.add(record)
        assert sum(acc.fraction(name) for name in PHASES) == \
            pytest.approx(1.0)

    def test_empty_accumulator_reports_nan(self):
        acc = PhaseAccumulator()
        assert math.isnan(acc.fraction("network"))
        assert math.isnan(acc.percentile("network", 50.0))


class TestDivergenceReport:
    def _pair(self):
        sim = decompose_records([_record(txn=i) for i in range(20)],
                                label="sim")
        live = decompose_records(
            [_record(txn=i, response=104.0, overhead=4.0)
             for i in range(20)],
            label="live")
        return compare(sim, live)

    def test_gap_is_attributed_per_phase(self):
        report = self._pair()
        assert isinstance(report, DivergenceReport)
        assert report.response_gap == pytest.approx(4.0)
        assert report.response_gap_relative == pytest.approx(0.04)
        shares = report.attribution()
        assert shares["overhead"] == pytest.approx(1.0)
        assert sum(shares.values()) == pytest.approx(1.0)
        # the shaped wire time is identical in both worlds
        assert report.network_agreement == pytest.approx(0.0)

    def test_describe_renders_every_phase(self):
        text = self._pair().describe()
        for name in PHASES:
            assert name in text
        assert "network phase agreement" in text


class TestLiveMergePhases:
    def test_partial_phase_charges_fold_and_overhead_cuts_lock_wait(self):
        from repro.live.results import MergedRun

        owner = _record(txn=1_000_001, overhead=3.0, rounds={"request": 1})
        server = endpoint_payload(0, "server", partials=[partial_record(
            1_000_001, {"grant": 1}, propagation=2.0, commit_coord=2.0,
            overhead=0.5)])
        merged = MergedRun([server, endpoint_payload(1, "client", [owner])])
        record = merged.records[1_000_001]
        assert record["commit_coord"] == pytest.approx(12.0)
        assert record["overhead"] == pytest.approx(3.5)
        explained = (record["propagation"] + record["transmission"]
                     + record["slack"] + record["client_think"])
        assert record["lock_wait"] == pytest.approx(
            100.0 - explained - 3.5)
        assert sum_violation(record) is None

    def test_merge_tripwire_raises_on_a_broken_budget(self):
        from repro.live.results import MergedRun

        merged = MergedRun(
            [endpoint_payload(1, "client", [_record(txn=1_000_003)])])
        merged.records[1_000_003]["lock_wait"] += 7.0
        with pytest.raises(AssertionError, match="span-sum invariant"):
            merged._enforce_span_invariant()


class TestPopulationProbes:
    def test_open_arrival_runs_expose_population_gauges(self):
        config = traced_config(
            protocol="g2pl", n_clients=4, n_items=20, population=40,
            arrival_rate=2e-4, total_transactions=60,
            warmup_transactions=6, probe_interval=500.0)
        result = run_simulation(config, seed=7)
        series = {name for _, name, _ in result.trace.probes}
        assert "popn_inflight" in series
        assert "popn_busy_skipped" in series
        assert "popn_shed" in series
        assert any(name.startswith("popn_inflight.site")
                   for name in series)

    def test_closed_loop_runs_have_no_population_gauges(self):
        result = run_simulation(traced_config(probe_interval=500.0),
                                seed=11)
        series = {name for _, name, _ in result.trace.probes}
        assert series, "probe sampler produced no samples"
        assert not any(name.startswith("popn_") for name in series)


class TestCLI:
    ARGV = ["run", "--trace", "--protocol", "s2pl", "--clients", "6",
            "--items", "8", "--transactions", "120", "--warmup", "20",
            "--latency", "100", "--shards", "2"]

    def test_run_trace_out_prints_a_budget_and_writes_four_files(
            self, capsys, tmp_path):
        import json

        from repro.cli import main

        assert main([*self.ARGV, "--out", str(tmp_path / "dec")]) == 0
        out = capsys.readouterr().out
        assert "decomposition [" in out and all(n in out for n in PHASES)
        for suffix in ("jsonl", "chrome.json", "metrics.csv", "phases.csv"):
            assert (tmp_path / f"dec.{suffix}").stat().st_size > 0
        header = (tmp_path / "dec.phases.csv").read_text().splitlines()[0]
        assert header == "txn,client,committed,response," + ",".join(PHASES)
        rows = map(json.loads, open(tmp_path / "dec.jsonl", encoding="utf-8"))
        txns = [row for row in rows if row["type"] == "txn"]
        assert txns and not any("server_queue" in row for row in txns)

    def test_a_broken_phase_sum_exits_1(self, capsys, monkeypatch):
        import repro.cli as cli

        def broken(config):
            result = run_simulation(config)
            records = list(result.trace.txns)
            next(record for record in records
                 if record["measured"])["lock_wait"] += 7.0
            result.trace.txns = records
            return result

        monkeypatch.setattr(cli, "run_simulation", broken)
        assert cli.main(self.ARGV) == 1
        assert "decomposition invariant violated" in capsys.readouterr().err


@pytest.mark.live
class TestLiveDivergence:
    """A loopback live run's endpoint traces, merged onto one timeline.
    (The decomposition against the simulator's prediction is checked on
    every calibration: ``tests/test_live_smoke.py``.)"""

    def test_trace_export_round_trips_through_the_merged_chrome_trace(
            self, tmp_path):
        import json

        from repro.core.config import SimulationConfig
        from repro.live.harness import run_live
        from repro.live.scenario import ScenarioSpec, calibrate_schedule
        from repro.obs.export import (
            write_merged_chrome_trace,
            write_phases_csv,
        )

        spec = ScenarioSpec(SimulationConfig(
            protocol="g2pl", n_clients=3, network_latency=2.0,
            probe_interval=50.0), repeats=2, trace_export=True)
        live = run_live(spec, calibrate_schedule(spec), time_scale=0.02,
                        workdir=str(tmp_path))
        assert all("trace_events" in payload and "probes" in payload
                   for payload in live.merged.payloads)
        trace_path = tmp_path / "merged.chrome.json"
        write_merged_chrome_trace(trace_path, live.merged.payloads)
        events = json.loads(trace_path.read_text())["traceEvents"]
        pids = {e["pid"] for e in events if e.get("ph") == "M"}
        assert len(pids) == spec.config.n_clients + 1  # a lane per endpoint
        assert any(e.get("cat") == "txn" for e in events)
        assert any(e.get("cat") == "phase" for e in events)
        assert any(e.get("ph") == "C" for e in events)  # probe counters
        csv_path = tmp_path / "merged.phases.csv"
        write_phases_csv(csv_path, live.merged.records.values())
        assert len(csv_path.read_text().splitlines()) == \
            len(live.merged.records) + 1
